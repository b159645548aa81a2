package serve

// The binary query protocol: length-prefixed frames over
// internal/transport, one request frame in, one response frame out.
// Frame types live in the 0x10/0x20 ranges so they can never be
// confused with the cluster protocol's 1..13 coordination frames.
// Payloads are uvarint-packed like the rest of the wire layer, and every
// decoder is hardened against hostile counts and truncated varints (the
// FuzzServeBinaryFrame target).

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dkcore"
	"dkcore/internal/transport"
)

// Request frame types.
const (
	// FrameQueryCoreness asks for one node's coreness: uvarint(node).
	FrameQueryCoreness uint8 = 0x10 + iota
	// FrameQueryKCore asks for the k-core member list: uvarint(k).
	FrameQueryKCore
	// FrameQueryDegeneracy asks for the degeneracy: empty payload.
	FrameQueryDegeneracy
	// FrameQueryStats asks for the serving counters: empty payload.
	FrameQueryStats
	// FrameMutate ships a mutation batch: wait byte (0 enqueue /
	// 1 synchronous), uvarint count, then per event an op byte
	// (0 insert / 1 delete) and uvarint u, v.
	FrameMutate
)

// Response frame types.
const (
	// FrameRespValue answers a coreness or degeneracy query:
	// uvarint(epoch), uvarint(value).
	FrameRespValue uint8 = 0x20 + iota
	// FrameRespMembers answers a k-core query: uvarint(epoch) followed
	// by a transport int slice of member IDs.
	FrameRespMembers
	// FrameRespStats carries the Stats counters as nine uvarints.
	FrameRespStats
	// FrameRespMutate answers a mutate frame: uvarint(epoch),
	// uvarint(applied), uvarint(changed+1) (0 encodes "unknown", the
	// enqueue mode's -1).
	FrameRespMutate
	// FrameRespError carries a transport-encoded error string.
	FrameRespError
)

// maxMutateEvents bounds one mutation frame, keeping a hostile count
// from queueing unbounded work through a single frame.
const maxMutateEvents = 1 << 20

var errBadFrame = errors.New("serve: malformed frame")

// AppendMutate encodes a mutation batch for a FrameMutate frame.
func AppendMutate(buf []byte, events []dkcore.EdgeEvent, wait bool) []byte {
	w := byte(0)
	if wait {
		w = 1
	}
	buf = append(buf, w)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	for _, ev := range events {
		op := byte(0)
		if ev.Op == dkcore.EdgeDelete {
			op = 1
		}
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, uint64(ev.U))
		buf = binary.AppendUvarint(buf, uint64(ev.V))
	}
	return buf
}

// DecodeMutate reverses AppendMutate. Hostile counts are rejected before
// any count-sized allocation: every event costs at least three payload
// bytes.
func DecodeMutate(data []byte) (events []dkcore.EdgeEvent, wait bool, err error) {
	if len(data) < 1 || data[0] > 1 {
		return nil, false, fmt.Errorf("%w: bad wait flag", errBadFrame)
	}
	wait = data[0] == 1
	data = data[1:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, false, fmt.Errorf("%w: bad event count", errBadFrame)
	}
	data = data[n:]
	if count > uint64(len(data)/3) || count > maxMutateEvents {
		return nil, false, fmt.Errorf("%w: event count %d exceeds payload", errBadFrame, count)
	}
	events = make([]dkcore.EdgeEvent, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(data) < 1 || data[0] > 1 {
			return nil, false, fmt.Errorf("%w: bad op at event %d", errBadFrame, i)
		}
		op := dkcore.EdgeInsert
		if data[0] == 1 {
			op = dkcore.EdgeDelete
		}
		data = data[1:]
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, false, fmt.Errorf("%w: truncated endpoint at event %d", errBadFrame, i)
		}
		data = data[n:]
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, false, fmt.Errorf("%w: truncated endpoint at event %d", errBadFrame, i)
		}
		data = data[n:]
		if u > maxNodeID || v > maxNodeID {
			return nil, false, fmt.Errorf("%w: endpoint beyond %d at event %d", errBadFrame, maxNodeID, i)
		}
		events = append(events, dkcore.EdgeEvent{Op: op, U: int(u), V: int(v)})
	}
	if len(data) != 0 {
		return nil, false, fmt.Errorf("%w: %d trailing bytes", errBadFrame, len(data))
	}
	return events, wait, nil
}

// maxNodeID bounds wire node IDs: a session grows its node set to the
// largest mentioned ID, so an unchecked 2^60 endpoint would be a
// one-frame memory bomb.
const maxNodeID = 1 << 32

// decodeUvarint reads one uvarint request argument that must consume
// the whole payload.
func decodeUvarint(data []byte) (uint64, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return 0, errBadFrame
	}
	return x, nil
}

// frameSender is the response half of a connection; *transport.Conn
// implements it, and the fuzz harness substitutes a discarding one.
type frameSender interface {
	Send(typ uint8, payload []byte) error
}

// serveConn answers request frames until the peer closes or errors.
func (s *Server) serveConn(conn *transport.Conn) {
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return
		}
		if err := s.handleFrame(conn, typ, payload); err != nil {
			return
		}
	}
}

// handleFrame decodes one request frame and sends exactly one response
// frame. Malformed requests produce a FrameRespError response, not a
// dropped connection; only a failed Send tears the connection down.
func (s *Server) handleFrame(conn frameSender, typ uint8, payload []byte) error {
	switch typ {
	case FrameQueryCoreness:
		u, err := decodeUvarint(payload)
		if err != nil {
			return s.sendError(conn, "bad coreness request")
		}
		ep := s.sess.CurrentEpoch()
		k := 0
		if u <= maxNodeID {
			k = ep.Coreness(int(u))
		}
		return conn.Send(FrameRespValue, appendEpochValue(nil, ep.Seq(), uint64(k)))
	case FrameQueryKCore:
		k, err := decodeUvarint(payload)
		if err != nil || k > maxNodeID {
			return s.sendError(conn, "bad kcore request")
		}
		ep := s.sess.CurrentEpoch()
		buf := binary.AppendUvarint(nil, ep.Seq())
		buf = append(buf, transport.EncodeIntSlice(ep.KCoreMembers(int(k)))...)
		return conn.Send(FrameRespMembers, buf)
	case FrameQueryDegeneracy:
		if len(payload) != 0 {
			return s.sendError(conn, "bad degeneracy request")
		}
		ep := s.sess.CurrentEpoch()
		return conn.Send(FrameRespValue, appendEpochValue(nil, ep.Seq(), uint64(ep.Degeneracy())))
	case FrameQueryStats:
		if len(payload) != 0 {
			return s.sendError(conn, "bad stats request")
		}
		st := s.stats()
		buf := appendEpochValue(nil, st.Epoch, uint64(st.Nodes))
		for _, x := range []uint64{uint64(st.Edges), uint64(st.Degeneracy), uint64(st.QueueDepth),
			uint64(st.Enqueued), uint64(st.Applied), uint64(st.Batches), uint64(st.EpochLag)} {
			buf = binary.AppendUvarint(buf, x)
		}
		return conn.Send(FrameRespStats, buf)
	case FrameMutate:
		events, wait, err := DecodeMutate(payload)
		if err != nil {
			return s.sendError(conn, err.Error())
		}
		// A full queue is a partial success, not an error: the reply's
		// applied < count tells the client which suffix to resend.
		res, err := s.applyMutations(events, wait)
		if err != nil && !errors.Is(err, dkcore.ErrQueueFull) {
			return s.sendError(conn, err.Error())
		}
		buf := appendEpochValue(nil, res.Epoch, uint64(res.Applied))
		buf = binary.AppendUvarint(buf, uint64(res.Changed+1))
		return conn.Send(FrameRespMutate, buf)
	default:
		return s.sendError(conn, fmt.Sprintf("unknown frame type 0x%x", typ))
	}
}

func (s *Server) sendError(conn frameSender, msg string) error {
	return conn.Send(FrameRespError, transport.EncodeString(nil, msg))
}

func appendEpochValue(buf []byte, epoch, value uint64) []byte {
	buf = binary.AppendUvarint(buf, epoch)
	return binary.AppendUvarint(buf, value)
}

// Client is a binary-protocol client for tests, benchmarks, and
// cmd/kcore-serve smoke checks. Not safe for concurrent use: the
// protocol is strictly request/response per connection.
type Client struct {
	conn *transport.Conn
}

// DialClient connects to a Server's binary listener.
func DialClient(addr string) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(reqType uint8, payload []byte, wantType uint8) ([]byte, error) {
	if err := c.conn.Send(reqType, payload); err != nil {
		return nil, err
	}
	typ, resp, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	if typ == FrameRespError {
		msg, _, derr := transport.DecodeString(resp)
		if derr != nil {
			msg = "undecodable error"
		}
		return nil, fmt.Errorf("serve: server error: %s", msg)
	}
	if typ != wantType {
		return nil, fmt.Errorf("serve: response type 0x%x, want 0x%x", typ, wantType)
	}
	return resp, nil
}

func decodeEpochValue(data []byte) (epoch, value uint64, rest []byte, err error) {
	epoch, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, nil, errBadFrame
	}
	data = data[n:]
	value, n = binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, nil, errBadFrame
	}
	return epoch, value, data[n:], nil
}

// Coreness queries one node's coreness, returning the value and the
// epoch it was read from.
func (c *Client) Coreness(u int) (coreness int, epoch uint64, err error) {
	resp, err := c.roundTrip(FrameQueryCoreness, binary.AppendUvarint(nil, uint64(u)), FrameRespValue)
	if err != nil {
		return 0, 0, err
	}
	epoch, v, rest, err := decodeEpochValue(resp)
	if err != nil || len(rest) != 0 {
		return 0, 0, errBadFrame
	}
	return int(v), epoch, nil
}

// Degeneracy queries the current degeneracy.
func (c *Client) Degeneracy() (degeneracy int, epoch uint64, err error) {
	resp, err := c.roundTrip(FrameQueryDegeneracy, nil, FrameRespValue)
	if err != nil {
		return 0, 0, err
	}
	epoch, v, rest, err := decodeEpochValue(resp)
	if err != nil || len(rest) != 0 {
		return 0, 0, errBadFrame
	}
	return int(v), epoch, nil
}

// KCoreMembers queries the sorted k-core member list.
func (c *Client) KCoreMembers(k int) (members []int, epoch uint64, err error) {
	resp, err := c.roundTrip(FrameQueryKCore, binary.AppendUvarint(nil, uint64(k)), FrameRespMembers)
	if err != nil {
		return nil, 0, err
	}
	epoch, n := binary.Uvarint(resp)
	if n <= 0 {
		return nil, 0, errBadFrame
	}
	members, consumed, err := transport.DecodeIntSlice(resp[n:])
	if err != nil || n+consumed != len(resp) {
		return nil, 0, errBadFrame
	}
	return members, epoch, nil
}

// Stats queries the serving counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(FrameQueryStats, nil, FrameRespStats)
	if err != nil {
		return Stats{}, err
	}
	vals := make([]uint64, 9)
	off := 0
	for i := range vals {
		v, n := binary.Uvarint(resp[off:])
		if n <= 0 {
			return Stats{}, errBadFrame
		}
		vals[i] = v
		off += n
	}
	if off != len(resp) {
		return Stats{}, errBadFrame
	}
	return Stats{
		Epoch: vals[0], Nodes: int(vals[1]), Edges: int(vals[2]), Degeneracy: int(vals[3]),
		QueueDepth: int(vals[4]), Enqueued: int64(vals[5]), Applied: int64(vals[6]),
		Batches: int64(vals[7]), EpochLag: int64(vals[8]),
	}, nil
}

// Mutate ships a mutation batch; with wait it blocks until the batch is
// absorbed and returns the exact changed count, without it the events
// are enqueued and Changed is -1. When the server's queue fills, only
// the first Applied events were accepted: Mutate returns that result
// with an error wrapping dkcore.ErrQueueFull, and the caller resends
// events[Applied:].
func (c *Client) Mutate(events []dkcore.EdgeEvent, wait bool) (MutateResult, error) {
	resp, err := c.roundTrip(FrameMutate, AppendMutate(nil, events, wait), FrameRespMutate)
	if err != nil {
		return MutateResult{}, err
	}
	epoch, applied, rest, err := decodeEpochValue(resp)
	if err != nil {
		return MutateResult{}, err
	}
	changed, n := binary.Uvarint(rest)
	if n <= 0 || n != len(rest) {
		return MutateResult{}, errBadFrame
	}
	res := MutateResult{Epoch: epoch, Applied: int(applied), Changed: int(changed) - 1}
	if res.Applied < len(events) {
		return res, fmt.Errorf("serve: %d of %d events accepted: %w", res.Applied, len(events), dkcore.ErrQueueFull)
	}
	return res, nil
}
