package cluster

import (
	"fmt"
	"slices"

	"dkcore/internal/core"
	"dkcore/internal/transport"
)

// Membership changes: a join moves every (H+1)-th node ID onto the new
// worker; a leave spreads the departing worker's nodes over the
// survivors. Neither follows the base ranges: every moved node becomes
// an ownership override that coordinator and hosts apply identically.
// Both are partial repartitions — only the moved nodes are re-shipped,
// to their new owners. The sequence at a round boundary is:
//
//  1. every live host gets a reshape frame carrying every move and
//     replies with a reshape-ack batch holding the current estimates
//     of its moved-out nodes (exported before any rebuild, so the
//     values are authoritative);
//  2. the coordinator routes those estimates to the new owners: as
//     seed frames (adjacency + estimate per moved-in node) to
//     surviving hosts, or as the initial replay batch of a joining
//     worker's restore;
//  3. recipients rebuild their partition state and report ready.
//
// Seeded estimates are also appended to the new owner's replay log as
// synthetic delivered entries, so a later restart replays them exactly
// as a live host received them. Checkpoints predate the new ownership
// table and are invalidated; the retained logs keep every slot
// restorable until the next checkpoint.
//
// An I/O failure during a reshape aborts the run: recovery assumes a
// stable ownership table, and a crash mid-repartition leaves neither
// the old nor the new table fully distributed. Operators get crash
// recovery during normal rounds, not during membership changes.

// reshapeState is the transient bookkeeping of one membership change.
type reshapeState struct {
	numHosts  int // slot-space size after the change
	oldHostOf []int
	moved     []int       // ascending node IDs
	movedEst  map[int]int // filled from reshape-acks
}

// planMoves records the new owners for moved (ascending) in hostOf.
func (r *coordRun) planMoves(numHosts int, moved []int, newOwner func(u int) int) *reshapeState {
	st := &reshapeState{
		numHosts:  numHosts,
		oldHostOf: slices.Clone(r.hostOf),
		moved:     moved,
		movedEst:  make(map[int]int, len(moved)),
	}
	for _, u := range moved {
		r.hostOf[u] = newOwner(u)
	}
	return st
}

// shipReshape sends every live slot the whole move list, so each host's
// override table equals hostOf on all nodes (a later change can hand a
// host a neighbor of a node moved now), and collects the reshape-ack
// estimate batches into st.movedEst. The ack doubles as the barrier
// guaranteeing no one rebuilds before every export is in.
func (r *coordRun) shipReshape(st *reshapeState) error {
	moves := make([]movePair, len(st.moved))
	for i, u := range st.moved {
		moves[i] = movePair{Node: u, Host: r.hostOf[u]}
	}
	buf := encodeReshape(reshapeMsg{NumHosts: st.numHosts, Moves: moves})
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		if err := s.conn.Send(frameReshape, buf); err != nil {
			return fmt.Errorf("cluster: reshape to host %d: %w", id, err)
		}
	}
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		typ, payload, err := s.conn.Recv()
		if err != nil {
			return fmt.Errorf("cluster: reshape-ack from host %d: %w", id, err)
		}
		if typ != frameReshapeAck {
			return &protocolError{host: id, cause: fmt.Errorf("frame %d, want reshape-ack", typ)}
		}
		batch, err := transport.DecodeBatch(payload)
		if err != nil {
			return &protocolError{host: id, cause: fmt.Errorf("reshape-ack: %w", err)}
		}
		for _, m := range batch {
			if m.Node < 0 || m.Node >= len(r.hostOf) || st.oldHostOf[m.Node] != id {
				return &protocolError{host: id, cause: fmt.Errorf("reshape-ack exports node %d it did not own", m.Node)}
			}
			st.movedEst[m.Node] = m.Core
		}
	}
	for _, u := range st.moved {
		if _, ok := st.movedEst[u]; !ok {
			return fmt.Errorf("cluster: no estimate exported for moved node %d", u)
		}
	}
	return nil
}

// seedSurvivors ships each surviving slot its moved-in nodes (adjacency
// and estimates) and appends the same estimates to its replay log as a
// synthetic delivered entry; then collects the ready frames. except
// excludes a slot (the leaver) from seeding.
func (r *coordRun) seedSurvivors(st *reshapeState, round, except int) error {
	movedIn := make([][]seedEntry, len(r.slots))
	for _, u := range st.moved {
		h := r.hostOf[u]
		if h == except || h >= len(r.slots) {
			continue
		}
		movedIn[h] = append(movedIn[h], seedEntry{Node: u, Est: st.movedEst[u], Neighbors: r.g.Neighbors(u)})
	}
	for id, s := range r.slots {
		if !s.alive || id == except {
			continue
		}
		if err := s.conn.Send(frameSeed, encodeSeed(movedIn[id])); err != nil {
			return fmt.Errorf("cluster: seed to host %d: %w", id, err)
		}
		if len(movedIn[id]) > 0 {
			r.appendSyntheticDelivery(id, round, st, movedIn[id])
		}
	}
	for id, s := range r.slots {
		if !s.alive || id == except {
			continue
		}
		if err := r.expectReady(id, s); err != nil {
			return err
		}
	}
	return nil
}

// appendSyntheticDelivery inserts the seeded estimates into slot id's
// replay log as an already-delivered entry at the cursor, so a restore
// replays them in delivery order.
func (r *coordRun) appendSyntheticDelivery(id, round int, st *reshapeState, entries []seedEntry) {
	batch := make(core.Batch, len(entries))
	for i, e := range entries {
		batch[i] = core.EstimateMsg{Node: e.Node, Core: e.Est}
	}
	raw := transport.AppendBatch(nil, batch)
	s := r.slots[id]
	src := st.oldHostOf[entries[0].Node]
	s.log = slices.Insert(s.log, s.cursor, relayEntry{src: src, round: round, raw: raw, pairs: len(batch)})
	s.cursor++
}

// invalidateCheckpoints drops every slot's checkpoint: a checkpoint's
// estimate vector is bound to the ownership table it was taken under.
// The retained replay logs keep every slot restorable from birth until
// the next checkpoint re-covers them.
func (r *coordRun) invalidateCheckpoints() {
	for _, s := range r.slots {
		s.ckpt = nil
	}
}

// reshapeJoin admits a handshaken worker as a new host: node IDs newID,
// 2·newID+1, … (every (newID+1)-th) move to it as overrides, survivors
// export their estimates, and the joiner enrolls exactly like an
// initial host — config plus a restore whose replay is the moved
// estimates.
func (r *coordRun) reshapeJoin(j joiner, round int) error {
	newID := len(r.slots)
	if newID+1 > maxHosts {
		j.conn.Close()
		return nil
	}
	var moved []int
	for u := newID; u < len(r.hostOf); u += newID + 1 {
		moved = append(moved, u)
	}
	r.c.log.Info("worker joining", "host", newID, "round", round, "movedNodes", len(moved))
	st := r.planMoves(newID+1, moved, func(u int) int { return newID })
	var err error
	r.parts, err = core.PartitionAll(r.g, core.TableAssignment{Table: r.hostOf, H: newID + 1})
	if err != nil {
		return fmt.Errorf("cluster: repartition for join: %w", err)
	}
	if err := r.shipReshape(st); err != nil {
		return err
	}
	r.slots = append(r.slots, &hostSlot{conn: j.conn, alive: true})
	seedBatch := make(core.Batch, len(moved))
	for i, u := range moved {
		seedBatch[i] = core.EstimateMsg{Node: u, Core: st.movedEst[u]}
	}
	restore := restoreMsg{}
	if len(seedBatch) > 0 {
		raw := transport.AppendBatch(nil, seedBatch)
		restore.Replay = []relayBatch{{Peer: st.oldHostOf[moved[0]], Raw: raw}}
		r.slots[newID].log = []relayEntry{{src: st.oldHostOf[moved[0]], round: round, raw: raw, pairs: len(seedBatch)}}
		r.slots[newID].cursor = 1
	}
	oNodes, oHosts := r.overrideLists()
	if err := r.configureHost(newID, restore, oNodes, oHosts); err != nil {
		return err
	}
	if err := r.seedSurvivors(st, round, newID); err != nil {
		return err
	}
	if err := r.expectReady(newID, r.slots[newID]); err != nil {
		return err
	}
	r.invalidateCheckpoints()
	r.res.Joins++
	r.c.log.Info("worker joined", "host", newID, "numHosts", len(r.slots))
	return nil
}

// reshapeLeave retires host id: its nodes are spread round-robin over
// the surviving hosts, which receive them via seed frames; the leaver
// then gets a normal stop/result exchange (result discarded) and its
// slot is marked departed for good.
func (r *coordRun) reshapeLeave(id, round int) error {
	if id < 0 || id >= len(r.slots) || !r.slots[id].alive || r.slots[id].left {
		r.c.log.Warn("leave request for absent host ignored", "host", id)
		return nil
	}
	var survivors []int
	for h, s := range r.slots {
		if s.alive && !s.left && h != id {
			survivors = append(survivors, h)
		}
	}
	if len(survivors) == 0 {
		r.c.log.Warn("leave request for last host ignored", "host", id)
		return nil
	}
	moved := slices.Clone(r.parts.Owned(id))
	r.c.log.Info("host leaving", "host", id, "round", round, "movedNodes", len(moved))
	next := 0
	st := r.planMoves(len(r.slots), moved, func(u int) int {
		h := survivors[next%len(survivors)]
		next++
		return h
	})
	var err error
	r.parts, err = core.PartitionAll(r.g, core.TableAssignment{Table: r.hostOf, H: len(r.slots)})
	if err != nil {
		return fmt.Errorf("cluster: repartition for leave: %w", err)
	}
	if err := r.shipReshape(st); err != nil {
		return err
	}
	if err := r.seedSurvivors(st, round, id); err != nil {
		return err
	}
	s := r.slots[id]
	if err := s.conn.Send(frameStop, nil); err != nil {
		return fmt.Errorf("cluster: stop to leaving host %d: %w", id, err)
	}
	if _, err := r.recvResult(id, s); err != nil {
		return err
	}
	s.conn.Close()
	s.alive = false
	s.left = true
	s.log = nil
	s.cursor = 0
	r.invalidateCheckpoints()
	r.res.Leaves++
	r.c.log.Info("host left", "host", id, "numHosts", len(r.slots))
	return nil
}
