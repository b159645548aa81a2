package dkcore

import (
	"io"

	"dkcore/internal/gen"
	"dkcore/internal/stream"
)

// This file re-exports the streaming k-core maintenance subsystem: exact
// incremental updates under edge insertions and deletions (Maintainer)
// and the timestamped edge-event format it replays.

// Maintainer maintains the exact k-core decomposition of a mutable graph
// under a stream of edge insertions and deletions, updating only the
// bounded region a mutation can affect instead of recomputing.
type Maintainer = stream.Maintainer

// NewMaintainer returns a Maintainer seeded with g's edges and exact
// decomposition.
func NewMaintainer(g *Graph) *Maintainer { return stream.NewMaintainer(g) }

// EdgeEvent is one timestamped edge mutation of an event stream.
type EdgeEvent = stream.Event

// EdgeOp is the kind of an EdgeEvent.
type EdgeOp = stream.Op

// Edge-event kinds.
const (
	// EdgeInsert adds an undirected edge.
	EdgeInsert = stream.OpInsert
	// EdgeDelete removes an undirected edge.
	EdgeDelete = stream.OpDelete
)

// ReadEvents parses a text edge-event stream: one "time op u v" record
// per line with op "+" (insert) or "-" (delete), '#'/'%' comments
// allowed.
func ReadEvents(r io.Reader) ([]EdgeEvent, error) { return stream.ReadEvents(r) }

// WriteEvents writes events in the format ReadEvents parses.
func WriteEvents(w io.Writer, events []EdgeEvent) error { return stream.WriteEvents(w, events) }

// EventStreamConfig parameterizes GenerateEventStream.
type EventStreamConfig = gen.EventStreamConfig

// GenerateEventStream returns a deterministic timestamped edge-event
// sequence: a random base graph built by insertions, then valid churn.
// Replaying it into a fresh Maintainer is rejection-free.
func GenerateEventStream(cfg EventStreamConfig, seed int64) []EdgeEvent {
	return gen.EventStream(cfg, seed)
}

// GenerateChurnEvents returns churn against an existing base graph g;
// replaying it into NewMaintainer(g) is rejection-free.
func GenerateChurnEvents(g *Graph, churn int, deleteFrac float64, seed int64) []EdgeEvent {
	return gen.ChurnEvents(g, churn, deleteFrac, seed)
}
