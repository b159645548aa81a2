// Package cluster deploys the one-to-many protocol over a real network:
// a coordinator partitions the graph, ships each partition to a host
// worker, drives synchronous δ-rounds, detects global termination with
// the paper's centralized master/slaves approach (§3.3), and collects
// the final coreness values. Estimate batches travel point-to-point in
// protocol terms (Algorithm 5's batch policy) but are physically
// relayed through the coordinator: a host's round-r outbox rides on its
// done report and the coordinator delivers it with the round-r+1 ticks.
// The relay is what makes the runtime fault tolerant — the coordinator
// sees every batch, so it can checkpoint hosts, replay exactly the
// deltas a restarted host missed, and repartition on membership changes
// without rewiring a peer mesh (see docs/PROTOCOL.md for the wire spec
// and docs/OPERATIONS.md for the operator's view).
//
// The same binary logic runs in-process (tests, examples) and as
// separate OS processes (cmd/kcore-coord and cmd/kcore-host).
package cluster

import (
	"encoding/binary"
	"fmt"

	"dkcore/internal/transport"
)

// Frame types of the coordinator/host protocol. All types stay below
// transport.CompressedFlag; the transport owns the high bit.
const (
	frameHello      uint8 = iota + 1 // host → coord: protocol version + capability flags
	frameWelcome                     // coord → host: negotiated flags
	frameConfig                      // coord → host: id, host counts, partition CSR, ownership overrides
	frameRestore                     // coord → host: checkpoint (optional) + replay batches
	frameReady                       // host → coord: configured (and restored) — ready for ticks
	frameTick                        // coord → host: round number, checkpoint flag, inbound batches
	frameDone                        // host → coord: per-round report + outbound batches
	frameCheckpoint                  // host → coord: round, estimate vector, support counters
	frameReshape                     // coord → host: membership change — moved (node, newHost) pairs
	frameReshapeAck                  // host → coord: estimates of this host's moved-out nodes
	frameSeed                        // coord → host: moved-in nodes (adjacency + estimates)
	frameStop                        // coord → host: protocol terminated
	frameResult                      // host → coord: owned coreness values, in owned-node order
)

// protocolVersion is the hello version this implementation speaks.
// Version 1 was the peer-mesh protocol; version 2 the coordinator relay
// over a modulo base ownership. Version 3 has version 2's frames but
// reads the config's base as contiguous ranges, so the two must not mix.
// Version 4 checkpoints one support counter per owned node where version
// 3 carried per-arc support histograms. Version 5 gap-codes the config's
// node IDs and drops them from the result frame; a version-4 host would
// read the gaps as raw IDs.
const protocolVersion = 5

// flagFlate is the hello/welcome capability bit for transparent flate
// frame compression.
const flagFlate = 1 << 0

// maxHosts bounds the host-ID space a config or relay frame may name.
// Nothing in the protocol needs more, and the bound keeps a hostile
// count from sizing allocations (host tables, border scratch) off an
// attacker-chosen 2^60.
const maxHosts = 1 << 20

// config is the coordinator→host configuration payload. The partition
// ships in flat CSR form: Owned is the host's sorted node set and the
// global-ID neighbors of Owned[i] are AdjFlat[AdjOff[i]:AdjOff[i+1]] —
// exactly the shape core.NewHostState consumes, so the host never
// rebuilds a per-node map. Every row is strictly increasing, as the
// graph's CSR rows are.
//
// On the wire the IDs travel gap-coded (docs/PROTOCOL.md §2.3): Owned as
// gaps of at least 1, each row as the signed offset of its first
// neighbor from its owner followed by gaps of at least 1, and the
// offsets as per-node degrees. Small, repetitive numbers are what flate
// compresses well; decodeConfig rebuilds AdjOff by prefix sum.
//
// Ownership is contiguous ranges plus overrides: node u belongs to
// OverrideHosts[i] if u == OverrideNodes[i], else to
// core.BlockAssignment{N: NumNodes, H: BaseHosts}.Host(u): the ID space
// is cut into BaseHosts contiguous ranges of ⌈NumNodes/BaseHosts⌉.
// Overrides accumulate from membership changes; a fresh cluster has
// none. NumHosts is the size of the host-ID slot space (departed hosts
// leave holes), used only for bounds checks.
type config struct {
	HostID    int
	NumHosts  int
	BaseHosts int
	NumNodes  int
	Owned     []int
	AdjOff    []int // len(Owned)+1, AdjOff[0] == 0
	AdjFlat   []int
	// OverrideNodes (strictly increasing) and OverrideHosts are
	// parallel: node OverrideNodes[i] is owned by OverrideHosts[i].
	OverrideNodes []int
	OverrideHosts []int
}

func encodeConfig(c config) []byte {
	// Gaps and degrees mostly take 1–2 bytes; a larger frame grows once.
	buf := make([]byte, 0, 16+2*len(c.Owned)+2*len(c.AdjFlat)+4*len(c.OverrideNodes))
	buf = binary.AppendUvarint(buf, uint64(c.HostID))
	buf = binary.AppendUvarint(buf, uint64(c.NumHosts))
	buf = binary.AppendUvarint(buf, uint64(c.BaseHosts))
	buf = binary.AppendUvarint(buf, uint64(c.NumNodes))
	buf = binary.AppendUvarint(buf, uint64(len(c.Owned)))
	buf = appendGaps(buf, -1, c.Owned)
	for i := range c.Owned {
		buf = binary.AppendUvarint(buf, uint64(c.AdjOff[i+1]-c.AdjOff[i]))
	}
	for i, u := range c.Owned {
		row := c.AdjFlat[c.AdjOff[i]:c.AdjOff[i+1]]
		if len(row) == 0 {
			continue
		}
		buf = binary.AppendVarint(buf, int64(row[0]-u))
		buf = appendGaps(buf, row[0], row[1:])
	}
	buf = append(buf, transport.EncodeIntSlice(c.OverrideNodes)...)
	buf = append(buf, transport.EncodeIntSlice(c.OverrideHosts)...)
	return buf
}

// appendGaps appends the strictly increasing ids as uvarint gaps, the
// first one taken from prev.
func appendGaps(buf []byte, prev int, ids []int) []byte {
	for _, v := range ids {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	return buf
}

// readGaps fills dst from the uvarint gaps at data[off:], the first one
// taken from prev, and returns the offset past the last gap. A zero gap
// (a repeated ID) or one that reaches limit is rejected, so what it
// accepts is strictly increasing and below limit.
func readGaps(data []byte, off, prev, limit int, dst []int) (int, error) {
	for i := range dst {
		gap, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("gap %d of %d truncated", i, len(dst))
		}
		if gap == 0 {
			return 0, fmt.Errorf("zero gap after %d: not strictly increasing", prev)
		}
		if gap > uint64(limit-1-prev) {
			return 0, fmt.Errorf("gap %d after %d leaves [0, %d)", gap, prev, limit)
		}
		off += n
		prev += int(gap)
		dst[i] = prev
	}
	return off, nil
}

func decodeConfig(data []byte) (config, error) {
	var c config
	fields := []*int{&c.HostID, &c.NumHosts, &c.BaseHosts, &c.NumNodes}
	off := 0
	for i, f := range fields {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return c, fmt.Errorf("cluster: decode config: field %d truncated", i)
		}
		if *f = int(v); *f < 0 {
			return c, fmt.Errorf("cluster: decode config: field %d overflows", i)
		}
		off += n
	}
	// Header sanity before anything host-count-sized is trusted: the
	// host counts bound later allocations (ownership tables, border
	// scratch in NewHostState), the host ID must name a slot, and a
	// zero base would divide by zero in the owner function.
	if c.NumHosts < 1 || c.NumHosts > maxHosts {
		return c, fmt.Errorf("cluster: decode config: host count %d outside [1, %d]", c.NumHosts, maxHosts)
	}
	if c.BaseHosts < 1 || c.BaseHosts > c.NumHosts {
		return c, fmt.Errorf("cluster: decode config: base host count %d outside [1, %d]", c.BaseHosts, c.NumHosts)
	}
	if c.HostID >= c.NumHosts {
		return c, fmt.Errorf("cluster: decode config: host id %d outside [0, %d)", c.HostID, c.NumHosts)
	}
	// The owned set feeds core.NewHostState, whose contract requires a
	// sorted, duplicate-free node list within the graph; the gaps
	// enforce it here where untrusted bytes enter.
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return c, fmt.Errorf("cluster: decode config: owned count truncated")
	}
	off += n
	// Every gap costs at least one byte.
	if count > uint64(len(data)-off) {
		return c, fmt.Errorf("cluster: decode config: owned count %d exceeds payload", count)
	}
	owned := make([]int, count)
	off, err := readGaps(data, off, -1, c.NumNodes, owned)
	if err != nil {
		return c, fmt.Errorf("cluster: decode config: owned set: %w", err)
	}
	c.Owned = owned
	c.AdjOff = make([]int, len(owned)+1)
	for i := range owned {
		deg, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return c, fmt.Errorf("cluster: decode config: degree of node %d truncated", owned[i])
		}
		off += n
		// Every adjacency entry costs at least one payload byte, so a
		// degree sum beyond the remaining bytes is corrupt; rejecting it
		// here also keeps the prefix sum from ever wrapping into negative
		// offsets (a hostile 2^64-1 degree would otherwise wrap the sum
		// and panic the decoder where it sizes AdjFlat).
		rem := uint64(len(data) - off)
		if deg > rem || uint64(c.AdjOff[i])+deg > rem {
			return c, fmt.Errorf("cluster: decode config: degree %d of node %d exceeds payload", deg, owned[i])
		}
		c.AdjOff[i+1] = c.AdjOff[i] + int(deg)
	}
	// Neighbor IDs feed the owner function; an out-of-range entry would
	// produce a phantom host or index out of bounds. The first neighbor
	// is range-checked here, the rest by their gaps.
	c.AdjFlat = make([]int, c.AdjOff[len(owned)])
	for i, u := range owned {
		row := c.AdjFlat[c.AdjOff[i]:c.AdjOff[i+1]]
		if len(row) == 0 {
			continue
		}
		first, n := binary.Varint(data[off:])
		if n <= 0 {
			return c, fmt.Errorf("cluster: decode config: first neighbor of node %d truncated", u)
		}
		off += n
		if first < -int64(u) || first >= int64(c.NumNodes-u) {
			return c, fmt.Errorf("cluster: decode config: first neighbor of node %d at offset %d outside [0, %d)", u, first, c.NumNodes)
		}
		row[0] = u + int(first)
		if off, err = readGaps(data, off, row[0], c.NumNodes, row[1:]); err != nil {
			return c, fmt.Errorf("cluster: decode config: neighbors of node %d: %w", u, err)
		}
	}
	oNodes, n, err := transport.DecodeIntSlice(data[off:])
	if err != nil {
		return c, fmt.Errorf("cluster: decode config: override nodes: %w", err)
	}
	off += n
	oHosts, n, err := transport.DecodeIntSlice(data[off:])
	if err != nil {
		return c, fmt.Errorf("cluster: decode config: override hosts: %w", err)
	}
	off += n
	if len(oNodes) != len(oHosts) {
		return c, fmt.Errorf("cluster: decode config: %d override nodes, %d hosts", len(oNodes), len(oHosts))
	}
	for i, u := range oNodes {
		if u < 0 || u >= c.NumNodes {
			return c, fmt.Errorf("cluster: decode config: override node %d outside [0, %d)", u, c.NumNodes)
		}
		if i > 0 && oNodes[i-1] >= u {
			return c, fmt.Errorf("cluster: decode config: override nodes not strictly increasing at %d", u)
		}
		if oHosts[i] < 0 || oHosts[i] >= c.NumHosts {
			return c, fmt.Errorf("cluster: decode config: override host %d outside [0, %d)", oHosts[i], c.NumHosts)
		}
	}
	c.OverrideNodes, c.OverrideHosts = oNodes, oHosts
	if off != len(data) {
		return c, fmt.Errorf("cluster: decode config: %d trailing bytes", len(data)-off)
	}
	return c, nil
}

// relayBatch is one encoded estimate batch in flight through the
// coordinator, tagged with the peer on the far side: the destination
// host in a done frame's outbox, the source host in a tick frame's
// inbox and a restore frame's replay list. Raw is the exact byte string
// the sender produced (transport.AppendBatch form); the coordinator
// relays it verbatim and only the final recipient decodes it.
type relayBatch struct {
	Peer int
	Raw  []byte
}

// appendRelays appends a relay-batch list: uvarint count, then per
// batch a uvarint peer, uvarint length, and the raw bytes.
func appendRelays(buf []byte, rs []relayBatch) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = binary.AppendUvarint(buf, uint64(r.Peer))
		buf = binary.AppendUvarint(buf, uint64(len(r.Raw)))
		buf = append(buf, r.Raw...)
	}
	return buf
}

// decodeRelays decodes a relay-batch list, returning the batches (Raw
// aliases data) and the bytes consumed. Counts and lengths are checked
// against the bytes present before any allocation; batch payloads are
// not decoded here — transport.DecodeBatch or ScanBatch hardens that
// layer at the point of use.
func decodeRelays(data []byte) ([]relayBatch, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("cluster: decode relays: bad count")
	}
	off := n
	// Every entry costs at least two bytes (peer + length).
	if count > uint64(len(data)-off)/2 {
		return nil, 0, fmt.Errorf("cluster: decode relays: count %d exceeds payload", count)
	}
	rs := make([]relayBatch, 0, count)
	for i := uint64(0); i < count; i++ {
		peer, n := binary.Uvarint(data[off:])
		if n <= 0 || peer > maxHosts {
			return nil, 0, fmt.Errorf("cluster: decode relays: bad peer at %d", i)
		}
		off += n
		length, n := binary.Uvarint(data[off:])
		if n <= 0 || length > uint64(len(data)-off-n) {
			return nil, 0, fmt.Errorf("cluster: decode relays: bad length at %d", i)
		}
		off += n
		rs = append(rs, relayBatch{Peer: int(peer), Raw: data[off : off+int(length)]})
		off += int(length)
	}
	return rs, off, nil
}

// tickMsg is the coordinator→host round kick: the round number, a
// checkpoint request flag, and the batches relayed to this host (their
// Peer field is the source host).
type tickMsg struct {
	Round      int
	Checkpoint bool
	Batches    []relayBatch
}

func encodeTick(buf []byte, m tickMsg) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Round))
	var flags uint64
	if m.Checkpoint {
		flags |= 1
	}
	buf = binary.AppendUvarint(buf, flags)
	return appendRelays(buf, m.Batches)
}

func decodeTick(data []byte) (tickMsg, error) {
	var m tickMsg
	round, n := binary.Uvarint(data)
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode tick: bad round")
	}
	off := n
	flags, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode tick: bad flags")
	}
	off += n
	rs, n, err := decodeRelays(data[off:])
	if err != nil {
		return m, fmt.Errorf("cluster: decode tick: %w", err)
	}
	off += n
	if off != len(data) {
		return m, fmt.Errorf("cluster: decode tick: %d trailing bytes", len(data)-off)
	}
	m.Round = int(round)
	m.Checkpoint = flags&1 != 0
	m.Batches = rs
	return m, nil
}

// doneReport is the host→coordinator per-round report used for the
// centralized termination decision and the host-side metrics.
type doneReport struct {
	Round        int
	Changed      int   // owned estimates changed this round
	SentTotal    int64 // cumulative batches shipped (via the relay)
	AppliedTotal int64 // cumulative batches applied
	PairsTotal   int64 // cumulative (node, estimate) pairs shipped
}

// appendDone appends the round report and the host's outbox (Peer =
// destination host); per-round senders reuse the buffer.
func appendDone(buf []byte, r doneReport, out []relayBatch) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Round))
	buf = binary.AppendUvarint(buf, uint64(r.Changed))
	buf = binary.AppendUvarint(buf, uint64(r.SentTotal))
	buf = binary.AppendUvarint(buf, uint64(r.AppliedTotal))
	buf = binary.AppendUvarint(buf, uint64(r.PairsTotal))
	return appendRelays(buf, out)
}

func decodeDone(data []byte) (doneReport, []relayBatch, error) {
	var r doneReport
	vals := make([]uint64, 5)
	off := 0
	for i := range vals {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return r, nil, fmt.Errorf("cluster: decode done: field %d truncated", i)
		}
		vals[i] = v
		off += n
	}
	r.Round = int(vals[0])
	r.Changed = int(vals[1])
	r.SentTotal = int64(vals[2])
	r.AppliedTotal = int64(vals[3])
	r.PairsTotal = int64(vals[4])
	out, n, err := decodeRelays(data[off:])
	if err != nil {
		return r, nil, fmt.Errorf("cluster: decode done: %w", err)
	}
	off += n
	if off != len(data) {
		return r, nil, fmt.Errorf("cluster: decode done: %d trailing bytes", len(data)-off)
	}
	return r, out, nil
}

// checkpointMsg is a host's state snapshot at a round boundary: the
// full estimate vector in encoded-batch form plus the owned nodes'
// support counters as an integrity checksum (core.VerifySupport). Est stays
// encoded end to end — the coordinator stores it opaquely and the
// restoring host replays it through Apply, whose validation is the
// trust boundary.
type checkpointMsg struct {
	Round int
	Est   []byte
	Sup   []int
}

func appendCheckpoint(buf []byte, m checkpointMsg) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Round))
	buf = binary.AppendUvarint(buf, uint64(len(m.Est)))
	buf = append(buf, m.Est...)
	return append(buf, transport.EncodeIntSlice(m.Sup)...)
}

// decodeCheckpoint decodes a checkpoint, returning bytes consumed so it
// can embed in a restore frame. Est is scanned (not materialized) so a
// corrupt vector is rejected where the bytes enter.
func decodeCheckpoint(data []byte) (checkpointMsg, int, error) {
	var m checkpointMsg
	round, n := binary.Uvarint(data)
	if n <= 0 {
		return m, 0, fmt.Errorf("cluster: decode checkpoint: bad round")
	}
	off := n
	length, n := binary.Uvarint(data[off:])
	if n <= 0 || length > uint64(len(data)-off-n) {
		return m, 0, fmt.Errorf("cluster: decode checkpoint: bad estimate length")
	}
	off += n
	m.Est = data[off : off+int(length)]
	off += int(length)
	if _, err := transport.ScanBatch(m.Est); err != nil {
		return m, 0, fmt.Errorf("cluster: decode checkpoint: estimates: %w", err)
	}
	hist, n, err := transport.DecodeIntSlice(data[off:])
	if err != nil {
		return m, 0, fmt.Errorf("cluster: decode checkpoint: support: %w", err)
	}
	off += n
	m.Round = int(round)
	m.Sup = hist
	return m, off, nil
}

// restoreMsg is the coordinator→host resume payload sent right after
// config: the latest checkpoint (nil on a fresh start) and the relay
// batches to replay — everything delivered to this slot since that
// checkpoint's round (or since the beginning, without checkpoints).
// Replay entries' Peer is the source host.
type restoreMsg struct {
	Ckpt   *checkpointMsg
	Replay []relayBatch
}

func encodeRestore(m restoreMsg) []byte {
	buf := make([]byte, 0, 64)
	if m.Ckpt == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, 1)
		buf = appendCheckpoint(buf, *m.Ckpt)
	}
	return appendRelays(buf, m.Replay)
}

func decodeRestore(data []byte) (restoreMsg, error) {
	var m restoreMsg
	has, n := binary.Uvarint(data)
	if n <= 0 || has > 1 {
		return m, fmt.Errorf("cluster: decode restore: bad checkpoint flag")
	}
	off := n
	if has == 1 {
		ck, n, err := decodeCheckpoint(data[off:])
		if err != nil {
			return m, fmt.Errorf("cluster: decode restore: %w", err)
		}
		off += n
		m.Ckpt = &ck
	}
	rs, n, err := decodeRelays(data[off:])
	if err != nil {
		return m, fmt.Errorf("cluster: decode restore: %w", err)
	}
	off += n
	if off != len(data) {
		return m, fmt.Errorf("cluster: decode restore: %d trailing bytes", len(data)-off)
	}
	m.Replay = rs
	return m, nil
}

// movePair is one membership-change relocation: Node is now owned by
// Host.
type movePair struct {
	Node, Host int
}

// reshapeMsg announces a membership change to a surviving host: the new
// slot-space size and every relocation, from which the host finds its
// own moved-out nodes, re-targets every affected border, and keeps its
// ownership override table equal to the coordinator's.
type reshapeMsg struct {
	NumHosts int
	Moves    []movePair
}

func encodeReshape(m reshapeMsg) []byte {
	buf := make([]byte, 0, 16+4*len(m.Moves))
	buf = binary.AppendUvarint(buf, uint64(m.NumHosts))
	buf = binary.AppendUvarint(buf, uint64(len(m.Moves)))
	for _, mv := range m.Moves {
		buf = binary.AppendUvarint(buf, uint64(mv.Node))
		buf = binary.AppendUvarint(buf, uint64(mv.Host))
	}
	return buf
}

func decodeReshape(data []byte, numNodes int) (reshapeMsg, error) {
	var m reshapeMsg
	hosts, n := binary.Uvarint(data)
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode reshape: bad host count")
	}
	if hosts < 1 || hosts > maxHosts {
		return m, fmt.Errorf("cluster: decode reshape: host count %d outside [1, %d]", hosts, maxHosts)
	}
	off := n
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode reshape: bad move count")
	}
	off += n
	if count > uint64(len(data)-off)/2 {
		return m, fmt.Errorf("cluster: decode reshape: move count %d exceeds payload", count)
	}
	m.NumHosts = int(hosts)
	m.Moves = make([]movePair, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		node, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return m, fmt.Errorf("cluster: decode reshape: truncated move %d", i)
		}
		off += n
		host, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return m, fmt.Errorf("cluster: decode reshape: truncated host %d", i)
		}
		off += n
		if node >= uint64(numNodes) || int(node) <= prev {
			return m, fmt.Errorf("cluster: decode reshape: move node %d invalid (prev %d, n %d)", node, prev, numNodes)
		}
		if host >= uint64(m.NumHosts) {
			return m, fmt.Errorf("cluster: decode reshape: move host %d outside [0, %d)", host, m.NumHosts)
		}
		prev = int(node)
		m.Moves = append(m.Moves, movePair{Node: int(node), Host: int(host)})
	}
	if off != len(data) {
		return m, fmt.Errorf("cluster: decode reshape: %d trailing bytes", len(data)-off)
	}
	return m, nil
}

// seedEntry is one moved-in node a surviving host receives at a
// membership change: its global ID, its current estimate (from the old
// owner's reshape ack), and its global-ID adjacency.
type seedEntry struct {
	Node, Est int
	Neighbors []int
}

func encodeSeed(entries []seedEntry) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(e.Node))
		buf = binary.AppendUvarint(buf, uint64(e.Est))
		buf = binary.AppendUvarint(buf, uint64(len(e.Neighbors)))
		for _, v := range e.Neighbors {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

func decodeSeed(data []byte, numNodes int) ([]seedEntry, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("cluster: decode seed: bad count")
	}
	off := n
	// Every entry costs at least three bytes (node, est, degree).
	if count > uint64(len(data)-off)/3 {
		return nil, fmt.Errorf("cluster: decode seed: count %d exceeds payload", count)
	}
	entries := make([]seedEntry, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		var e seedEntry
		node, n := binary.Uvarint(data[off:])
		if n <= 0 || node >= uint64(numNodes) || int(node) <= prev {
			return nil, fmt.Errorf("cluster: decode seed: bad node at entry %d", i)
		}
		off += n
		prev = int(node)
		e.Node = int(node)
		est, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("cluster: decode seed: bad estimate at entry %d", i)
		}
		off += n
		e.Est = int(est)
		deg, n := binary.Uvarint(data[off:])
		if n <= 0 || deg > uint64(len(data)-off-n) {
			return nil, fmt.Errorf("cluster: decode seed: bad degree at entry %d", i)
		}
		off += n
		e.Neighbors = make([]int, 0, deg)
		for j := uint64(0); j < deg; j++ {
			v, n := binary.Uvarint(data[off:])
			if n <= 0 || v >= uint64(numNodes) {
				return nil, fmt.Errorf("cluster: decode seed: bad neighbor %d of entry %d", j, i)
			}
			off += n
			e.Neighbors = append(e.Neighbors, int(v))
		}
		entries = append(entries, e)
	}
	if off != len(data) {
		return nil, fmt.Errorf("cluster: decode seed: %d trailing bytes", len(data)-off)
	}
	return entries, nil
}

// decodeResult reads a result frame, an int slice of the coreness
// values of a host's owned nodes in ascending node order: the
// coordinator knows which nodes the host owns, so the IDs stay off the
// wire. owned is that set, sorted, every ID an index of coreness; the
// i-th value is stored at coreness[owned[i]]. The count must equal
// len(owned), and a value must lie below len(coreness): a coreness never
// exceeds the maximum degree, which is below the node count.
func decodeResult(payload []byte, owned, coreness []int) error {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("cluster: decode result: bad count")
	}
	if count != uint64(len(owned)) {
		return fmt.Errorf("cluster: decode result: %d values for %d owned nodes", count, len(owned))
	}
	off := n
	for _, u := range owned {
		k, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return fmt.Errorf("cluster: decode result: value of node %d truncated", u)
		}
		if k >= uint64(len(coreness)) {
			return fmt.Errorf("cluster: decode result: node %d has coreness %d, want below %d", u, k, len(coreness))
		}
		off += n
		coreness[u] = int(k)
	}
	if off != len(payload) {
		return fmt.Errorf("cluster: decode result: %d trailing bytes", len(payload)-off)
	}
	return nil
}

// helloMsg is the host's opening frame: its protocol version and
// capability flags.
type helloMsg struct {
	Version int
	Flags   uint64
}

func encodeHello(m helloMsg) []byte {
	buf := binary.AppendUvarint(nil, uint64(m.Version))
	return binary.AppendUvarint(buf, m.Flags)
}

func decodeHello(data []byte) (helloMsg, error) {
	var m helloMsg
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode hello: bad version")
	}
	off := n
	flags, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return m, fmt.Errorf("cluster: decode hello: bad flags")
	}
	off += n
	if off != len(data) {
		return m, fmt.Errorf("cluster: decode hello: %d trailing bytes", len(data)-off)
	}
	m.Version = int(v)
	m.Flags = flags
	return m, nil
}
