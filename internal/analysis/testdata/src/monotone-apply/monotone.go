// Package monotone exercises KC001: estimate state may only be written
// by //dkcore:estwrite-blessed entry points.
package monotone

type host struct {
	est      []int
	coreness []uint32
	names    []string
	core     int
}

// rogueWrite lowers an estimate directly, bypassing the Apply path.
func rogueWrite(h *host, u, v int) {
	h.est[u] = v // want "KC001: write to estimate state"
}

// rogueReplace swaps the whole estimate vector behind the cascade's back.
func rogueReplace(h *host, fresh []int) {
	h.est = fresh // want "KC001: write to estimate state"
}

// rogueBump raises a coreness value in place, violating monotonicity.
func rogueBump(h *host, u int) {
	h.coreness[u]++ // want "KC001: write to estimate state"
}

// nodeState has the shape of core.NodeState, the per-node machine: the
// vector is an unexported `est` field, so the rule guards it by name.
type nodeState struct {
	neighbors []int
	est       []int
	core      int
}

// rogueNodeWrite is what a runtime reaching into the node machine
// instead of calling Deliver would look like.
func rogueNodeWrite(s *nodeState, i, k int) {
	s.est[i] = k // want "KC001: write to estimate state"
	s.core = k
}

//dkcore:estwrite the test package's blessed pointwise-min Apply path
func blessedApply(h *host, u, v int) {
	if v < h.est[u] {
		h.est[u] = v
	}
}

// localVector builds a not-yet-published estimate vector; locals are
// exempt because nothing observes them until they are installed.
func localVector(n int) []int {
	est := make([]int, n)
	for i := range est {
		est[i] = n
	}
	return est
}

// otherField writes non-estimate fields: name collisions with scalar
// fields or non-integer slices are out of scope.
func otherField(h *host, u int) {
	h.names[u] = "x"
	h.core = u
}
