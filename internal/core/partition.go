package core

import (
	"fmt"

	"dkcore/internal/graph"
)

// Partitions is the flat, immutable product of partitioning a graph over
// every host of an assignment at once: a node→host table plus, per host,
// a dense sorted owned slice and a concatenated CSR-style adjacency copy.
// It is built by PartitionAll in a single O(n+m+p) pass for the
// simulator adapter (onetomany.go). The networked cluster needs none of
// it: its hosts own BlockAssignment ranges, whose rows are contiguous in
// the graph's own CSR.
//
// All adjacency data is copied out of the source graph at construction:
// mutating a partition view can never corrupt the graph's internal CSR
// storage, and the graph may be released once its Partitions exist.
type Partitions struct {
	hostOf []int // node → host table (the precomputed assignment)

	// Owned nodes of host x are ownedFlat[ownedOff[x]:ownedOff[x+1]],
	// sorted ascending (nodes are bucketed in ID order).
	ownedFlat []int
	ownedOff  []int // len NumParts()+1

	// The neighbors of ownedFlat[i] are adjFlat[adjOff[i]:adjOff[i+1]] —
	// one concatenated adjacency array for all partitions, in ownedFlat
	// order, copied from the graph.
	adjFlat []int
	adjOff  []int // len n+1
}

// PartitionAll buckets g's nodes over every host of assign in one
// O(n+m+p) pass — one node scan to build and validate the node→host
// table, one counting-sort bucketing, and one adjacency copy — rather
// than the O(n·p) of scanning the full node set once per host. The
// table is the single validation point for user-supplied assignments:
// every node must land in [0, NumHosts()).
func PartitionAll(g *graph.Graph, assign Assignment) (*Partitions, error) {
	n, p := g.NumNodes(), assign.NumHosts()
	if p < 1 {
		return nil, fmt.Errorf("assignment reports %d hosts", p)
	}
	hostOf := make([]int, n)
	for u := range hostOf {
		if hostOf[u] = assign.Host(u); hostOf[u] < 0 || hostOf[u] >= p {
			return nil, fmt.Errorf("assignment sends node %d to host %d, want [0, %d)", u, hostOf[u], p)
		}
	}

	// Counting sort of nodes by host: ascending node order within each
	// bucket keeps every owned slice sorted with no comparison sort.
	ownedOff := make([]int, p+1)
	for _, h := range hostOf {
		ownedOff[h+1]++
	}
	for x := 0; x < p; x++ {
		ownedOff[x+1] += ownedOff[x]
	}
	ownedFlat := make([]int, n)
	cursor := append([]int(nil), ownedOff[:p]...)
	for u, h := range hostOf {
		ownedFlat[cursor[h]] = u
		cursor[h]++
	}

	// One adjacency copy in ownedFlat order; partition x's adjacency is
	// the contiguous range delimited by its owned range's offsets.
	adjOff := make([]int, n+1)
	adjFlat := make([]int, g.NumArcs())
	pos := 0
	for i, u := range ownedFlat {
		adjOff[i] = pos
		pos += copy(adjFlat[pos:], g.Neighbors(u))
	}
	adjOff[n] = pos

	return &Partitions{
		hostOf:    hostOf,
		ownedFlat: ownedFlat,
		ownedOff:  ownedOff,
		adjFlat:   adjFlat,
		adjOff:    adjOff,
	}, nil
}

// NumParts returns the number of partitions.
func (p *Partitions) NumParts() int { return len(p.ownedOff) - 1 }

// NumNodes returns the number of nodes partitioned.
func (p *Partitions) NumNodes() int { return len(p.hostOf) }

// HostOf returns the host owning node u — the precomputed assignment
// table lookup.
func (p *Partitions) HostOf(u int) int { return p.hostOf[u] }

// Owned returns host x's sorted node set (shared slice — do not modify).
func (p *Partitions) Owned(x int) []int {
	return p.ownedFlat[p.ownedOff[x]:p.ownedOff[x+1]]
}

// CSR returns host x's flat partition state: its sorted owned nodes, the
// offsets delimiting each node's neighbors, and the concatenated
// neighbor array, such that the neighbors of owned[i] are
// flat[off[i]:off[i+1]]. The slices are views into the Partitions'
// storage (which never aliases the source graph); treat them as
// read-only unless this Partitions is dedicated to the caller.
func (p *Partitions) CSR(x int) (owned, off, flat []int) {
	lo, hi := p.ownedOff[x], p.ownedOff[x+1]
	return p.ownedFlat[lo:hi], p.adjOff[lo : hi+1], p.adjFlat
}

// NewPartitionState builds the protocol state machine for host id's
// partition.
func (p *Partitions) NewPartitionState(id int) *HostState {
	owned, off, flat := p.CSR(id)
	return NewHostState(id, p.NumNodes(), owned, off, flat, p.HostOf)
}
