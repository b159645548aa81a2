package core

import "math/rand"

// Assignment maps graph nodes to the hosts responsible for them in the
// one-to-many scenario (the paper's h(u) function, §2).
type Assignment interface {
	// Host returns the host responsible for node u.
	Host(u int) int
	// NumHosts returns the number of hosts.
	NumHosts() int
}

// ModuloAssignment is the paper's policy (§3.2.2): node u is assigned to
// host u mod H.
type ModuloAssignment struct {
	// H is the number of hosts; it must be positive.
	H int
}

// Host implements Assignment.
func (a ModuloAssignment) Host(u int) int { return u % a.H }

// NumHosts implements Assignment.
func (a ModuloAssignment) NumHosts() int { return a.H }

// BlockAssignment assigns contiguous ranges of ⌈N/H⌉ nodes per host, the
// natural policy when a large graph is split file-by-file. For generators
// that number nodes by construction order (e.g. preferential attachment)
// this keeps communities together, exercising locality effects that the
// paper's modulo policy deliberately ignores.
type BlockAssignment struct {
	// N is the number of nodes; H the number of hosts. Both must be
	// positive, with H <= N for a meaningful split.
	N, H int
}

// Host implements Assignment. The ceiling avoids N+H-1, which wraps
// for an N near the int range (a node count read off the wire).
func (a BlockAssignment) Host(u int) int {
	per := (a.N-1)/a.H + 1
	h := u / per
	if h >= a.H {
		h = a.H - 1
	}
	return h
}

// NumHosts implements Assignment.
func (a BlockAssignment) NumHosts() int { return a.H }

// Range returns host h's nodes as the range [lo, hi): the u in [0, N)
// with Host(u) == h. Like Host, it does not wrap for an N near the int
// range.
func (a BlockAssignment) Range(h int) (lo, hi int) {
	per := max((a.N-1)/a.H+1, 1) // 1 when N = 0
	if lo, hi = a.N, a.N; h <= a.N/per {
		lo = h * per
		hi = lo + min(per, a.N-lo)
	}
	return lo, hi
}

// TableAssignment materializes an arbitrary node→host table.
// Table[u] must be in [0, H); H may exceed the number of distinct hosts
// the table names.
type TableAssignment struct {
	// Table maps node ID to host ID.
	Table []int
	// H is the size of the host ID space.
	H int
}

// Host implements Assignment.
func (a TableAssignment) Host(u int) int { return a.Table[u] }

// NumHosts implements Assignment.
func (a TableAssignment) NumHosts() int { return a.H }

// RandomAssignment assigns each node to a uniformly random host, fixed at
// construction time by the seed.
type RandomAssignment struct {
	hosts []int
	h     int
}

// NewRandomAssignment builds a RandomAssignment of n nodes over h hosts.
func NewRandomAssignment(n, h int, seed int64) *RandomAssignment {
	rng := rand.New(rand.NewSource(seed))
	hosts := make([]int, n)
	for u := range hosts {
		hosts[u] = rng.Intn(h)
	}
	return &RandomAssignment{hosts: hosts, h: h}
}

// Host implements Assignment.
func (a *RandomAssignment) Host(u int) int { return a.hosts[u] }

// NumHosts implements Assignment.
func (a *RandomAssignment) NumHosts() int { return a.h }
