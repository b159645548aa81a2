// Package cluster deploys the one-to-many protocol over a real network:
// a coordinator partitions the graph, ships each partition to a host
// worker, drives synchronous δ-rounds, detects global termination with
// the paper's centralized master/slaves approach (§3.3), and collects
// the final coreness values. Estimate batches travel point-to-point in
// protocol terms (Algorithm 5's batch policy) but are physically
// relayed through the coordinator: a host's round-r outbox rides on its
// done report and the coordinator delivers it with the round-r+1 ticks.
// Fault tolerance rests on the paper's safety argument (§3.1): any
// vector that bounds the coreness from above converges to it under the
// min-cascade. Every host death, join and leave is therefore one warm
// restart at a round boundary: the hosts checkpoint their owned values,
// the coordinator min-merges them into one upper-bound vector,
// repartitions the graph over the hosts now present, and seeds each
// host from that vector (see docs/PROTOCOL.md for the wire spec and
// docs/OPERATIONS.md for the operator's view).
//
// The same binary logic runs in-process (tests, examples) and as
// separate OS processes (cmd/kcore-coord and cmd/kcore-host).
package cluster

import (
	"encoding/binary"
	"fmt"

	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/transport"
)

// Frame types of the coordinator/host protocol. All types stay below
// transport.CompressedFlag; the transport owns the high bit.
// Types 9 to 11 belonged to the version-5 membership frames and stay
// unused.
const (
	frameHello      uint8 = 1  // host → coord: protocol version + capability flags
	frameWelcome    uint8 = 2  // coord → host: negotiated flags
	frameConfig     uint8 = 3  // coord → host: id, host count, node count, the range's rows
	frameRestore    uint8 = 4  // coord → host: seed estimates for the partition
	frameReady      uint8 = 5  // host → coord: configured and restored — ready for ticks
	frameTick       uint8 = 6  // coord → host: round number, checkpoint flag, inbound batches
	frameDone       uint8 = 7  // host → coord: per-round report + outbound batches
	frameCheckpoint uint8 = 8  // host → coord: round, owned values in node order
	frameStop       uint8 = 12 // coord → host: protocol terminated
	frameResult     uint8 = 13 // host → coord: owned coreness values, in node order
)

// protocolVersion is the hello version this implementation speaks.
// Version 1 was the peer-mesh protocol; version 2 the coordinator relay
// over a modulo base ownership. Version 3 has version 2's frames but
// reads the config's base as contiguous ranges, so the two must not mix.
// Version 4 checkpoints one support counter per owned node where version
// 3 carried per-arc support histograms. Version 5 gap-codes the config's
// node IDs and drops them from the result frame; a version-4 host would
// read the gaps as raw IDs. Version 6 replaces checkpoint replay and the
// reshape, reshape-ack and seed frames with one warm restart, and drops
// the config's base host count and override lists. Version 7 drops the
// config's owned set, which the header's range ownership already fixes;
// a version-6 host would read the degrees as the owned count and gaps.
const protocolVersion = 7

// flagFlate is the hello/welcome capability bit for transparent flate
// frame compression.
const flagFlate = 1 << 0

// maxHosts bounds the host-ID space a config or relay frame may name.
// Nothing in the protocol needs more, and the bound keeps a hostile
// count from sizing allocations (host tables, border scratch) off an
// attacker-chosen 2^60.
const maxHosts = 1 << 20

// config is the coordinator→host configuration payload. The header
// (HostID, NumHosts, NumNodes) fixes the host's owned nodes: ownership
// is contiguous ranges, node u belongs to
// core.BlockAssignment{N: NumNodes, H: NumHosts}.Host(u), which cuts the
// ID space into NumHosts ranges of ⌈NumNodes/NumHosts⌉, so host HostID
// owns the range [lo, hi) that block().Range(HostID) returns. The
// partition ships in flat 32-bit CSR form: the global-ID neighbors of
// node lo+i are AdjFlat[AdjOff[i]:AdjOff[i+1]] — exactly the shape
// core.NewHostState consumes, so the host never rebuilds a per-node
// map. Every row is strictly increasing, as the graph's CSR rows are.
//
// On the wire the rows travel in graph.AppendRows form (docs/PROTOCOL.md
// §2.3): the per-node degrees, then each row as the signed offset of its
// first neighbor from its owner followed by gaps of at least 1. Small,
// repetitive numbers are what flate compresses well.
type config struct {
	HostID   int
	NumHosts int
	NumNodes int
	AdjOff   []int32 // hi-lo+1 entries, AdjOff[0] == 0
	AdjFlat  []int32
}

// block is the range ownership the config's header fixes.
func (c config) block() core.BlockAssignment {
	return core.BlockAssignment{N: c.NumNodes, H: c.NumHosts}
}

// encodeConfig encodes host hostID's config frame straight from the
// rows of its range, which row returns (the coordinator passes the
// graph's Neighbors): every row must be strictly increasing.
func encodeConfig[E int | int32](hostID, numHosts, numNodes int, row func(u int) []E) []byte {
	lo, hi := core.BlockAssignment{N: numNodes, H: numHosts}.Range(hostID)
	buf := binary.AppendUvarint(make([]byte, 0, 16+2*(hi-lo)), uint64(hostID))
	buf = binary.AppendUvarint(buf, uint64(numHosts))
	buf = binary.AppendUvarint(buf, uint64(numNodes))
	return graph.AppendRows(buf, lo, hi, row)
}

func decodeConfig(data []byte) (config, error) {
	var c config
	fields := []*int{&c.HostID, &c.NumHosts, &c.NumNodes}
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
	// host count bounds later allocations (border scratch in
	// NewHostState), the host ID must name a host, and a zero count
	// would divide by zero in the owner function. Rows decode into
	// int32, so a node count past graph.MaxNodes would wrap neighbor
	// IDs.
	if c.NumHosts < 1 || c.NumHosts > maxHosts {
		return c, fmt.Errorf("cluster: decode config: host count %d outside [1, %d]", c.NumHosts, maxHosts)
	}
	if c.HostID >= c.NumHosts {
		return c, fmt.Errorf("cluster: decode config: host id %d outside [0, %d)", c.HostID, c.NumHosts)
	}
	if c.NumNodes > graph.MaxNodes {
		return c, fmt.Errorf("cluster: decode config: node count %d above %d", c.NumNodes, graph.MaxNodes)
	}
	// Neighbor IDs feed the owner function; DecodeRows keeps every one
	// inside [0, NumNodes), so none names a phantom host.
	lo, hi := c.block().Range(c.HostID)
	var err error
	if c.AdjOff, c.AdjFlat, err = graph.DecodeRows[int32](data[off:], lo, hi, c.NumNodes, nil); err != nil {
		return c, fmt.Errorf("cluster: decode config: %w", err)
	}
	return c, nil
}

// relayBatch is one encoded estimate batch in flight through the
// coordinator, tagged with the peer on the far side: the destination
// host in a done frame's outbox, the source host in a tick frame's
// inbox. Raw is the exact byte string the sender produced
// (transport.AppendBatch form); the coordinator relays it verbatim and
// only the final recipient decodes it.
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

// appendCheckpoint appends a checkpoint: the round, then the host's
// owned estimates in node order, in the result frame's int-slice form.
// Every estimate bounds its node's coreness from above, which is all a
// restart needs from it.
func appendCheckpoint(buf []byte, round int, values []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(round))
	return append(buf, transport.EncodeIntSlice(values)...)
}

// decodeCheckpoint reads a checkpoint of the host owning the range
// [lo, hi), checked like a result: it returns the round and the values
// in node order.
func decodeCheckpoint(payload []byte, lo, hi, numNodes int) (int, []int, error) {
	round, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("cluster: decode checkpoint: bad round")
	}
	values, err := decodeOwnedValues("checkpoint", payload[n:], lo, hi, numNodes)
	return int(round), values, err
}

// decodeResult reads a result frame, an int slice of the coreness
// values of a host's owned range [lo, hi) in node order: the
// coordinator knows the range, so the IDs stay off the wire. The i-th
// value is stored at coreness[lo+i], and nothing is stored unless the
// whole frame decodes.
func decodeResult(payload []byte, lo, hi int, coreness []int) error {
	values, err := decodeOwnedValues("result", payload, lo, hi, len(coreness))
	copy(coreness[lo:], values)
	return err
}

// decodeOwnedValues reads an int slice of one value per node of the
// owned range [lo, hi). The count must equal hi-lo, and a value must lie
// below numNodes: a coreness or estimate never exceeds the maximum
// degree, which is below the node count. It returns nil values on any
// error.
func decodeOwnedValues(what string, payload []byte, lo, hi, numNodes int) ([]int, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("cluster: decode %s: bad count", what)
	}
	if count != uint64(hi-lo) {
		return nil, fmt.Errorf("cluster: decode %s: %d values for %d owned nodes", what, count, hi-lo)
	}
	off := n
	values := make([]int, hi-lo)
	for i := range values {
		k, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, fmt.Errorf("cluster: decode %s: value of node %d truncated", what, lo+i)
		}
		if k >= uint64(numNodes) {
			return nil, fmt.Errorf("cluster: decode %s: node %d has value %d, want below %d", what, lo+i, k, numNodes)
		}
		off += n
		values[i] = int(k)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("cluster: decode %s: %d trailing bytes", what, len(payload)-off)
	}
	return values, nil
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
