// Package epoch exercises KC005: state reachable from a published Epoch
// snapshot is immutable outside its constructor.
package epoch

import "sync"

type graphIndex struct {
	deg []int
}

// Epoch mirrors the serving layer's published snapshot shape: vectors
// it owns, pages and rows it shares copy-on-write with the maintainer
// and with its neighbors in time, and a CSR cache filled on first use.
type Epoch struct {
	seq      uint64
	coreness []uint32
	g        *graphIndex
	pages    []*[4]int
	rows     [][]int

	csrOnce sync.Once
	csr     *graphIndex
}

// newEpoch is the blessed constructor: initialization is not mutation.
func newEpoch(seq uint64, n int) *Epoch {
	e := &Epoch{
		seq:      seq,
		coreness: make([]uint32, n),
		g:        &graphIndex{deg: make([]int, n)},
	}
	for i := range e.coreness {
		e.coreness[i] = uint32(n)
	}
	return e
}

// mutateField bumps a published epoch's sequence in place.
func mutateField(e *Epoch) {
	e.seq++ // want "KC005: write to e.seq mutates state reachable from an Epoch"
}

// mutateElem stores through a field of a published epoch.
func mutateElem(e *Epoch, u int, v uint32) {
	e.coreness[u] = v // want "KC005: write to .* mutates state reachable from an Epoch"
}

// mutateNested reaches through a nested pointer field.
func mutateNested(e *Epoch, u int) {
	e.g.deg[u] = 0 // want "KC005: write to .* mutates state reachable from an Epoch"
}

//dkcore:epochinit a two-phase constructor completing before publication
func finish(e *Epoch, d int) {
	e.seq = uint64(d)
}

// csrOf fills the CSR cache on first use: a blessed lazy initializer,
// the closure under the Once included.
//
//dkcore:epochinit the cache is filled once under sync.Once; every caller sees the completed value
func csrOf(e *Epoch) *graphIndex {
	e.csrOnce.Do(func() { e.csr = &graphIndex{deg: make([]int, len(e.coreness))} })
	return e.csr
}

// lazyUnblessed does the same without the directive.
func lazyUnblessed(e *Epoch) *graphIndex {
	e.csrOnce.Do(func() {
		e.csr = &graphIndex{} // want "KC005: write to e.csr mutates state reachable from an Epoch"
	})
	return e.csr
}

// roguePageWrite updates a shared page in place after publication, where
// the maintainer must copy the page into the next epoch instead.
func roguePageWrite(e *Epoch, u, k int) {
	e.pages[u>>2][u&3] = k // want "KC005: write to .* mutates state reachable from an Epoch"
}

// rogueRowWrite deletes from a shared adjacency row in place.
func rogueRowWrite(e *Epoch, u, i int) {
	e.rows[u] = append(e.rows[u][:i], e.rows[u][i+1:]...) // want "KC005: write to .* mutates state reachable from an Epoch"
}

// copyOnWrite is the maintainer's side of the rule: the page goes into
// a fresh array that only the epoch under construction will reference.
func copyOnWrite(e *Epoch, u, k int) *[4]int {
	pg := *e.pages[u>>2]
	pg[u&3] = k
	return &pg
}

// readOnly only reads the snapshot: clean.
func readOnly(e *Epoch, u int) uint32 {
	return e.coreness[u]
}

// unrelated mutates a struct no Epoch reaches: clean.
func unrelated(g *graphIndex, u int) {
	g.deg[u] = 1
}
