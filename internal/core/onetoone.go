package core

import (
	"dkcore/internal/graph"
	"dkcore/internal/sim"
)

// oneToOneNode is Algorithm 1 on the round simulator: the per-node
// protocol for the scenario where each graph node is its own host. The
// update rule is NodeState's; this type adds only the periodic-send
// bookkeeping — changed marks whether the estimate was lowered since the
// last periodic send.
type oneToOneNode struct {
	id      int
	st      NodeState // adjacency aliases the graph's storage
	changed bool
	sendOpt bool // §3.1.2: send to v only when it can still lower v's index
	// retransmit > 0 rebroadcasts the current estimate every that many
	// rounds even when unchanged, the loss-tolerance extension.
	retransmit int
}

var _ sim.Process[EstimateMsg] = (*oneToOneNode)(nil)

func newOneToOneNode(g *graph.Graph, id int, sendOpt bool) *oneToOneNode {
	return &oneToOneNode{id: id, st: NewNodeState(g.Neighbors(id)), sendOpt: sendOpt}
}

// Init broadcasts ⟨u, d(u)⟩ to every neighbor.
func (n *oneToOneNode) Init(ctx *sim.Context[EstimateMsg]) {
	msg := EstimateMsg{Node: n.id, Core: n.st.Core()}
	for _, v := range n.st.Neighbors() {
		ctx.Send(v, msg)
	}
}

// Deliver handles a ⟨v, k⟩ message: store the improved neighbor estimate
// and recompute the local one.
func (n *oneToOneNode) Deliver(_ *sim.Context[EstimateMsg], from int, msg EstimateMsg) {
	if n.st.Deliver(from, msg.Core) {
		n.changed = true
	}
}

// Tick is the periodic (every δ) block: if the estimate changed since the
// last round — or a retransmission round came due — send the current
// value to the neighbors.
func (n *oneToOneNode) Tick(ctx *sim.Context[EstimateMsg]) {
	refresh := n.retransmit > 0 && ctx.Round()%n.retransmit == 0
	if !n.changed && !refresh {
		return
	}
	msg := EstimateMsg{Node: n.id, Core: n.st.Core()}
	for i, v := range n.st.Neighbors() {
		if n.sendOpt && !n.st.CanLower(i) {
			continue
		}
		ctx.Send(v, msg)
	}
	n.changed = false
}

// Core returns the node's current coreness estimate.
func (n *oneToOneNode) Core() int { return n.st.Core() }
