// Package transport provides the wire layer for the networked one-to-many
// deployment: length-prefixed frames over any stream connection, a
// compact varint codec for estimate batches and graph partitions, and
// optional per-connection flate compression negotiated above this layer.
//
// A frame is [length u32 big-endian][type u8][payload][crc32c u32
// big-endian]; length covers the type byte and payload, and the trailer
// is the Castagnoli CRC-32 of every byte before it, as sent. Frame types
// occupy 0x00..0x7F; the high bit of the type byte is the per-frame
// compression flag (see CompressedFlag).
// The framing is transport-agnostic: it works over TCP sockets, net.Pipe
// pairs in tests, or any io.ReadWriteCloser.
//
// Every decoder in this package follows the decode-before-allocate
// contract documented in docs/PROTOCOL.md: peer-supplied counts and
// lengths are checked against the bytes actually present (or against
// MaxFrameSize, for decompression) before any proportional allocation.
package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// MaxFrameSize bounds a single frame's length field to keep a corrupted or
// hostile peer from inducing huge allocations.
const MaxFrameSize = 1 << 28 // 256 MiB

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrCorrupt is wrapped by the error Recv returns when a frame's
// checksum trailer does not match the bytes before it: the stream was
// damaged in flight, and nothing in the frame can be trusted.
var ErrCorrupt = errors.New("transport: frame checksum mismatch")

// frameOverhead is the framing each frame adds to its payload: the
// length and type header and the checksum trailer.
const frameOverhead = 9

// castagnoli is the CRC-32C table of the frame trailer; amd64 and arm64
// compute it in hardware.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Conn is a framed connection. Send is safe for concurrent use; Recv must
// be called from a single goroutine at a time.
type Conn struct {
	writeMu     sync.Mutex // guards writes, compressOut, out-direction stats
	bw          *bufio.Writer
	compressOut bool
	flateW      *flate.Writer
	flateBuf    bytes.Buffer
	outStats    FrameStats
	outByType   [CompressedFlag]FrameStats
	outFrame    [frameOverhead]byte // header and trailer scratch

	br         *bufio.Reader // Recv is single-goroutine; statsMu covers Stats readers
	inFrame    [8]byte       // length and trailer scratch
	compressIn bool
	flateR     io.ReadCloser
	statsMu    sync.Mutex
	inStats    FrameStats
	inByType   [CompressedFlag]FrameStats

	closer io.Closer

	dl           deadliner // underlying deadline surface; nil when unsupported
	readTimeout  time.Duration
	writeTimeout time.Duration
}

// deadliner is the per-direction deadline surface of the underlying
// stream — net.Conn, net.Pipe ends, and fault-injection wrappers all
// provide it; plain io.ReadWriteClosers need not.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// NewConn wraps a stream connection in framing.
func NewConn(rw io.ReadWriteCloser) *Conn {
	dl, _ := rw.(deadliner)
	return &Conn{
		bw:     bufio.NewWriter(rw),
		br:     bufio.NewReader(rw),
		closer: rw,
		dl:     dl,
	}
}

// SetTimeouts installs per-frame deadlines: each Recv must deliver its
// next frame within read of being called, and each Send must complete
// within write, or the operation fails with the underlying transport's
// timeout error. Zero disables a direction. The read timeout bounds the
// whole wait for the next frame, so choose it above the longest
// legitimate quiet period of the protocol (a cluster host idles through
// its coordinator's full recovery wait). It returns false when the
// underlying stream has no deadline support, in which case the
// connection keeps working without timeouts. Call before the connection
// carries traffic; it is not synchronized with in-flight frames.
func (c *Conn) SetTimeouts(read, write time.Duration) bool {
	if c.dl == nil {
		return false
	}
	c.readTimeout = read
	c.writeTimeout = write
	return true
}

// Dial connects to a framed-protocol listener at addr (TCP).
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(c), nil
}

// Send writes one frame and flushes it. When compression is enabled
// (SetCompression) and the payload is large enough to benefit, the
// payload is deflated and the frame carries typ|CompressedFlag; frames
// that would not shrink are sent raw. Types with the compressed bit
// already set are rejected with ErrReservedFrameType.
func (c *Conn) Send(typ uint8, payload []byte) error {
	if typ >= CompressedFlag {
		return ErrReservedFrameType
	}
	if len(payload)+1 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.writeTimeout > 0 && c.dl != nil {
		if err := c.dl.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("transport: send deadline: %w", err)
		}
	}
	wireType, wire := typ, payload
	if c.compressOut && len(payload) >= compressMin {
		packed, smaller, err := c.compressPayload(payload)
		if err != nil {
			return err
		}
		if smaller {
			wireType, wire = typ|CompressedFlag, packed
		}
	}
	hdr, sum := c.outFrame[:5], c.outFrame[5:]
	binary.BigEndian.PutUint32(hdr, uint32(len(wire)+1))
	hdr[4] = wireType
	binary.BigEndian.PutUint32(sum, crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, wire))
	for _, b := range [][]byte{hdr, wire, sum} {
		if _, err := c.bw.Write(b); err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.outStats.add(len(payload), len(wire)+frameOverhead)
	c.outByType[typ].add(len(payload), len(wire)+frameOverhead)
	return nil
}

// Recv reads one frame. It returns io.EOF unwrapped when the peer closed
// the connection cleanly between frames, and an error wrapping
// ErrCorrupt when the checksum trailer does not match.
func (c *Conn) Recv() (typ uint8, payload []byte, err error) {
	if c.readTimeout > 0 && c.dl != nil {
		if err := c.dl.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return 0, nil, fmt.Errorf("transport: recv deadline: %w", err)
		}
	}
	hdr, sum := c.inFrame[:4], c.inFrame[4:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: recv header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr)
	if length == 0 || length > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	// Read the body in bounded chunks so a corrupted or hostile length
	// field cannot induce a single huge allocation before any payload
	// bytes have actually arrived.
	const chunk = 1 << 20
	initial := int(length)
	if initial > chunk {
		initial = chunk
	}
	body := make([]byte, 0, initial)
	for len(body) < int(length) {
		n := int(length) - len(body)
		if n > chunk {
			n = chunk
		}
		prev := len(body)
		body = slices.Grow(body, n)[:prev+n]
		if _, err := io.ReadFull(c.br, body[prev:]); err != nil {
			return 0, nil, fmt.Errorf("transport: recv body: %w", err)
		}
	}
	if _, err := io.ReadFull(c.br, sum); err != nil {
		return 0, nil, fmt.Errorf("transport: recv checksum: %w", err)
	}
	if crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, body) != binary.BigEndian.Uint32(sum) {
		return 0, nil, fmt.Errorf("transport: recv: %w", ErrCorrupt)
	}
	typ, payload = body[0], body[1:]
	wire := int(length) + len(hdr) + len(sum)
	if typ&CompressedFlag != 0 {
		c.statsMu.Lock()
		compressIn := c.compressIn
		c.statsMu.Unlock()
		if !compressIn {
			return 0, nil, ErrCompressionNotNegotiated
		}
		payload, err = c.decompressPayload(payload)
		if err != nil {
			return 0, nil, err
		}
		typ &^= CompressedFlag
	}
	c.statsMu.Lock()
	c.inStats.add(len(payload), wire)
	c.inByType[typ].add(len(payload), wire)
	c.statsMu.Unlock()
	return typ, payload, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.closer.Close() }
