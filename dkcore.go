// Package dkcore is a from-scratch Go implementation of the distributed
// k-core decomposition algorithms of Montresor, De Pellegrini and
// Miorandi (PODC 2011), together with everything needed to reproduce the
// paper's evaluation and to serve decompositions in production: a
// sequential baseline, a round-based simulator, live goroutine runtimes,
// a sharded shared-memory peel, a networked cluster deployment, streaming
// maintenance, graph generators, and synthetic analogues of the paper's
// datasets.
//
// # Quick start
//
// Every execution path is reached through one facade: construct an
// Engine for a kind, then Run it with a context:
//
//	b := dkcore.NewBuilder(0)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	g := b.Build()
//
//	eng, err := dkcore.NewEngine(dkcore.OneToOne, dkcore.Seed(7))
//	if err != nil { ... }
//	rep, err := eng.Run(ctx, g)      // rep.Coreness, rep.Rounds, rep.TotalMessages, ...
//
// The eight kinds — Sequential, OneToOne, OneToMany, Live, LiveEpidemic,
// Parallel, Cluster, OutOfCore — compute the same coreness and fill the
// unified Report with the metrics their execution model defines.
// Cancelling the context (or exceeding its deadline) stops any kind
// within one round and returns ctx.Err().
//
// Options are a single merged set (Seed, MaxRounds, Delivery, Hosts,
// Workers, PartitionBy, ...); each option documents the kinds it applies
// to, and NewEngine rejects an option given with any other kind:
//
//	eng, err := dkcore.NewEngine(dkcore.OneToMany,
//	    dkcore.Hosts(8), dkcore.DisseminationPolicy(dkcore.PointToPoint))
//
// # Serving: the Session
//
// For long-lived use — decompose once, then answer queries while the
// graph keeps changing — wrap a run in a Session:
//
//	sess, err := dkcore.NewSession(ctx, g)   // or eng.NewSession(ctx, g)
//	sess.InsertEdge(17, 42)                  // exact incremental update
//	k := sess.Coreness(17)                   // concurrent reads allowed
//	members := sess.KCoreMembers(3)
//	d := sess.Degeneracy()
//
// Reads are lock-free: the Session publishes an immutable Epoch (per-node
// coreness, precomputed degeneracy, frozen edge set, monotone sequence
// number) through an atomic pointer after each absorbed mutation batch,
// and every query answers from the current epoch with a single atomic
// load — never blocked by an in-progress deletion cascade. CurrentEpoch
// pins one snapshot so a group of reads is mutually consistent, and
// every published epoch equals the exact decomposition of some prefix of
// the applied event sequence. Mutations flow through a bounded
// single-writer queue (QueueSize, MaxBatch) that batches and coalesces
// events; blocking mutators wait for their result while Enqueue returns
// ErrQueueFull instead of blocking. The streaming maintainer underneath
// touches only the bounded region an edge change can affect. See
// cmd/kcore-serve for the network front end over this contract.
//
// # Partitioning
//
// Every sharded execution path — OneToMany's simulated hosts, the
// Parallel peel, and the Cluster coordinator — shards the graph by an
// Assignment, the paper's h(u); for Parallel it decides which worker
// scans and seeds which node, while a node a cascade reaches is peeled
// by the worker whose decrement claimed it. ModuloAssignment is the
// paper's §3.2.2 policy and the OneToMany default; BlockAssignment
// keeps contiguous ranges together (the Parallel default);
// NewRandomAssignment fixes a uniform assignment by seed; PartitionBy
// installs any custom policy. An assignment routing a node outside
// [0, NumHosts()) is rejected before any rounds run. Cluster takes no
// PartitionBy: its coordinator always uses BlockAssignment over the
// current host count, and a membership change restarts the hosts over
// the new count.
//
// Cost model: OneToMany builds per-host state in one O(n+m) pass for
// all p partitions — a node→host table, dense owned slices and one
// concatenated adjacency copy — so setup is near-constant in p. The
// Cluster coordinator encodes each host's contiguous range straight
// from the graph's rows, and each host decodes only its own. Parallel
// copies nothing; its workers read the graph's own CSR.
//
// Aliasing contract: partition state is copied out of the source graph
// at construction; mutating a partition view can never corrupt the
// graph's internal CSR storage, and the graph may be released once its
// partitions exist.
//
// # Refinement cost model
//
// The estimate-protocol kinds refine estimates incrementally rather
// than re-running Algorithm 2 over a node's full neighbor list on each
// change; Sequential and Parallel peel. The per-host kinds (OneToMany,
// Cluster) and OutOfCore keep one support counter per node — its
// neighbors with estimate at least its own:
//
//   - Seed: for the per-host kinds, a bin-sort peel per partition,
//     O(partition arcs). It lands each owned node on the round-0 local
//     fixpoint directly (an arc to another host's node is permanent
//     support until that node's first estimate arrives), and one more
//     pass counts the supports. OutOfCore seeds each node, as its block
//     is spilled, with the h-index of its neighbors' degrees (one
//     Algorithm 1 update over the degree seed, from the O(n) degree
//     vector), and counts a node's support at its first visit, when
//     its row is resident.
//   - Per neighbor drop: O(1). A drop decrements the counters it
//     crosses, and a node is re-examined only when its support actually
//     falls below its estimate.
//   - Recomputation: O(degree), and only on a real drop. A deficient
//     node's one pass over its neighbors yields both its new estimate
//     and its new support, and always lowers the estimate, so total
//     work is O(Σ drops × degree).
//
// The per-node kinds (OneToOne, Live, LiveEpidemic) handle one message
// at a time and keep a histogram of their neighbors' estimates clamped
// to their own instead: a drop moves one unit between two buckets, and
// a deficient node walks its histogram down to the fixpoint, at a cost
// of the levels it drops rather than its degree.
//
// Zero steady-state allocations: host batches are collected into
// double-buffered storage (valid until the second-following collect —
// exactly one BSP round of slack), batches name nodes by global ID and
// each host translates them through one table built at setup, and the
// Cluster host reuses its wire-encode buffers; the Parallel peel
// retains its workers, degree array and queues. A warmed round loop
// allocates nothing (CI-gated).
//
// The recompute-from-scratch path is retained as an oracle for
// differential tests, which assert estimate-for-estimate equality with
// the incremental path at every cascade step across a 50-graph pool and
// under fuzzing.
//
// # Streaming maintenance
//
// Graphs that change over time do not need recomputation: a Maintainer
// (the engine under Session) keeps the exact decomposition current under
// a stream of edge insertions and deletions, touching only the bounded
// coreness region a mutation can affect. It is the one maintenance
// path: the per-node runtimes decompose a fixed graph.
//
// Event streams are timestamped edge mutations (EdgeEvent), generated
// with GenerateEventStream / GenerateChurnEvents and serialized by
// WriteEvents / ReadEvents as text: one "time op u v" record per line,
// where time is an int64 timestamp, op is "+" (insert) or "-" (delete),
// and u, v are non-negative node IDs; '#' and '%' start comment lines,
// blank lines are skipped. The cmd/kcore-stream binary replays such a
// file through a Maintainer and reports per-batch update latency.
package dkcore

import (
	"context"
	"io"

	"dkcore/internal/cluster"
	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/sim"
)

// Graph is an immutable undirected simple graph in CSR form; construct
// one with a Builder, FromEdges, or the readers below.
type Graph = graph.Graph

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// Decomposition is the result of a sequential k-core decomposition.
type Decomposition = kcore.Decomposition

// Assignment maps graph nodes to responsible hosts (the paper's h(u)).
type Assignment = core.Assignment

// ModuloAssignment is the paper's node-to-host policy: host(u) = u mod H.
type ModuloAssignment = core.ModuloAssignment

// BlockAssignment assigns contiguous node ranges to hosts.
type BlockAssignment = core.BlockAssignment

// Dissemination selects the one-to-many update-shipping policy.
type Dissemination = core.Dissemination

// Dissemination policies (§3.2.1 of the paper).
const (
	// Broadcast ships one batch per round over a broadcast medium.
	Broadcast = core.Broadcast
	// PointToPoint ships per-destination batches (Algorithm 5).
	PointToPoint = core.PointToPoint
)

// DeliveryMode selects the simulator's message-visibility discipline.
type DeliveryMode = sim.DeliveryMode

// Delivery modes for the Delivery option.
const (
	// DeliverNextRound is strict synchrony (the §4 analysis model).
	DeliverNextRound = sim.DeliverNextRound
	// DeliverSameRound is PeerSim-style cycle-driven delivery (the §5
	// experimental model and the default).
	DeliverSameRound = sim.DeliverSameRound
)

// NewBuilder returns a Builder for a graph with at least n nodes. Node
// IDs are below 2^31−1, so n is at most that, and a Builder holds at most
// 2^31−2^15 edges; past either ceiling the Builder panics, as AddEdge
// does on a negative ID. Build runs on up to four goroutines once more
// than 2^15 edges are added, with the same result on any number.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an undirected edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list ('#'/'%' comments
// allowed, lines up to 1 MiB) in O(n+m) time, remapping arbitrary
// non-negative IDs to dense ones in first-appearance order; origID maps
// back. The remap is a table indexed by raw ID while IDs stay within a
// constant factor of the node count, with a map for sparse or huge IDs,
// so its memory is O(nodes). More than 2^31−1 distinct IDs, or more than
// 2^31−2^15 edges, are a format error; of several errors the first in
// input order is returned.
//
// Lines are parsed on up to min(GOMAXPROCS−1, 4) goroutines besides the
// caller's, at least one, and the result does not depend on their
// number. Only the calling goroutine reads r, and the other goroutines
// have exited when ReadEdgeList returns.
func ReadEdgeList(r io.Reader) (g *Graph, origID []int64, err error) {
	return graph.ReadEdgeList(r)
}

// WriteEdgeList writes g as a plain "u v" edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadBinary reads the compact binary graph format, DKG2, that
// WriteBinary writes. Its memory grows with the bytes actually read, not
// with the counts a header claims; a node count above 2^31−1 is a format
// error, and so is a file in DKG1, the format of earlier versions, which
// must be regenerated from its source.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteBinary writes the compact binary graph format, DKG2: the node
// count, then every node's degree, then the gap-coded rows.
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// Decompose computes the exact k-core decomposition with the centralized
// Batagelj–Zaversnik O(m) algorithm — the paper's baseline and the ground
// truth for error traces.
func Decompose(g *Graph) *Decomposition { return kcore.Decompose(g) }

// VerifyLocality is the paper's Theorem 1 as a local check on a claimed
// coreness assignment: every node u has at least coreness[u] neighbors
// with coreness >= coreness[u], and at most coreness[u] with more. The
// check is necessary, not sufficient: a vector below the true coreness
// can pass it (a triangle labelled all 1s does). Certify is the exact
// check.
func VerifyLocality(g *Graph, coreness []int) error { return kcore.VerifyLocality(g, coreness) }

// Certify checks that coreness is exactly g's coreness, in O(n+m) work
// without decomposing g, on GOMAXPROCS worker goroutines (at most one
// per node), all gone when it returns. It checks VerifyLocality's first
// condition, which bounds the claim from above by the true coreness,
// then peels g level by level (at level j, it removes nodes claimed at j
// with at most j neighbors left), which bounds it from below. It returns
// nil, or an error naming a node that breaks the first condition or that
// the peel of its level cannot remove: the lowest failing level, then
// the lowest node, whatever the worker count.
func Certify(g *Graph, coreness []int) error { return kcore.Certify(g, coreness) }

// NewRandomAssignment assigns each node to a uniformly random host.
func NewRandomAssignment(n, h int, seed int64) Assignment {
	return core.NewRandomAssignment(n, h, seed)
}

// ClusterConfig configures a networked coordinator.
type ClusterConfig = cluster.CoordinatorConfig

// ClusterResult is the outcome of a networked run.
type ClusterResult = cluster.Result

// Coordinator drives a networked one-to-many deployment.
type Coordinator = cluster.Coordinator

// HostConfig configures a networked host worker.
type HostConfig = cluster.HostConfig

// NewCoordinator starts a coordinator listening for host workers.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) { return cluster.NewCoordinator(cfg) }

// HostResult is one host worker's share of a networked run: its owned
// coreness plus per-host round and traffic counters. A cluster Engine
// run carries every host's HostResult in Report.Hosts.
type HostResult = cluster.HostResult

// RunClusterHost joins a networked cluster at cfg.CoordinatorAddr and
// serves a partition until the coordinator signals termination,
// returning this host's structured result. Cancelling ctx tears the
// connections down promptly and returns ctx.Err().
func RunClusterHost(ctx context.Context, cfg HostConfig) (*HostResult, error) {
	return cluster.RunHost(ctx, cfg)
}
