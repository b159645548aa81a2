package transport

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
)

// Frame-level compression. The high bit of the type byte marks a
// compressed frame: [length u32][type|0x80][flate(payload)][crc32c],
// the checksum covering the compressed bytes. The bit is per-frame, so
// small frames travel raw even on a compressed connection, and a
// decoder that has not negotiated compression rejects the bit outright
// instead of feeding attacker-controlled bytes to a decompressor. Frame
// types therefore live in 0x00..0x7F.

// CompressedFlag is the type-byte bit marking a flate-compressed
// payload. Protocol frame types must stay below it.
const CompressedFlag = 0x80

// FlateLevel is the DEFLATE level of every compressed frame. BestSpeed
// deflates a cluster config frame about 3x faster than the default
// level; on a gap-coded config the output is half the size of the
// default level's on raw IDs.
const FlateLevel = flate.BestSpeed

// compressMin is the smallest payload worth compressing: below this,
// flate's header overhead exceeds any plausible saving and the frame is
// sent raw even on a compressed connection.
const compressMin = 64

// ErrCompressionNotNegotiated is returned by Recv when a frame arrives
// with the compressed bit set on a connection that has not enabled
// compression — feeding a decompressor bytes from a peer that never
// negotiated for it is how decompression bombs get in.
var ErrCompressionNotNegotiated = errors.New("transport: compressed frame on uncompressed connection")

// ErrReservedFrameType is returned by Send when the frame type has the
// compressed bit set: types 0x80..0xFF are reserved for the wire
// encoding and cannot be used by protocols.
var ErrReservedFrameType = errors.New("transport: frame type has reserved compression bit set")

// SetCompression turns transparent flate compression on or off for
// both directions of the connection. It must be called at a quiet
// point — after a negotiation handshake, before the frames that should
// benefit — and on both peers, or the uncompressed side will reject
// compressed frames with ErrCompressionNotNegotiated.
func (c *Conn) SetCompression(on bool) {
	c.writeMu.Lock()
	c.compressOut = on
	c.writeMu.Unlock()
	c.statsMu.Lock()
	c.compressIn = on
	c.statsMu.Unlock()
}

// compressPayload deflates payload into the connection's scratch
// buffer, returning the compressed bytes (valid until the next call)
// and true when compression actually helped. Caller holds writeMu.
func (c *Conn) compressPayload(payload []byte) ([]byte, bool, error) {
	c.flateBuf.Reset()
	if c.flateW == nil {
		zw, err := flate.NewWriter(&c.flateBuf, FlateLevel)
		if err != nil {
			return nil, false, fmt.Errorf("transport: flate init: %w", err)
		}
		c.flateW = zw
	} else {
		c.flateW.Reset(&c.flateBuf)
	}
	if _, err := c.flateW.Write(payload); err != nil {
		return nil, false, fmt.Errorf("transport: compress: %w", err)
	}
	if err := c.flateW.Close(); err != nil {
		return nil, false, fmt.Errorf("transport: compress: %w", err)
	}
	out := c.flateBuf.Bytes()
	return out, len(out) < len(payload), nil
}

// decompressPayload inflates a compressed frame body. The output is
// bounded by MaxFrameSize so a tiny frame cannot expand into an
// arbitrarily large allocation (decompression bomb); the bound is
// checked by reading one byte past it, not by trusting any
// peer-supplied size.
func (c *Conn) decompressPayload(body []byte) ([]byte, error) {
	src := bytes.NewReader(body)
	if c.flateR == nil {
		c.flateR = flate.NewReader(src)
	} else if err := c.flateR.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("transport: flate reset: %w", err)
	}
	var out bytes.Buffer
	n, err := io.Copy(&out, io.LimitReader(c.flateR, MaxFrameSize+1))
	if err != nil {
		return nil, fmt.Errorf("transport: decompress: %w", err)
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	return out.Bytes(), nil
}

// FrameStats counts frames and bytes for one direction of a connection.
// RawBytes is payload size before compression (what the protocol
// produced); WireBytes is what actually crossed the wire, including the
// 9 bytes of framing (5-byte header, 4-byte checksum trailer). On an
// uncompressed connection WireBytes == RawBytes + 9*Frames.
type FrameStats struct {
	Frames    int64
	RawBytes  int64
	WireBytes int64
}

func (s *FrameStats) add(raw, wire int) {
	s.Frames++
	s.RawBytes += int64(raw)
	s.WireBytes += int64(wire)
}

// ConnStats is a snapshot of a connection's per-direction frame and
// byte counters, total and per frame type (indexed by the base type,
// compressed bit stripped).
type ConnStats struct {
	Out, In             FrameStats
	OutByType, InByType [CompressedFlag]FrameStats
}

// Stats returns a snapshot of the connection's wire statistics. It is
// safe to call concurrently with Send and Recv.
func (c *Conn) Stats() ConnStats {
	c.writeMu.Lock()
	out, outBy := c.outStats, c.outByType
	c.writeMu.Unlock()
	c.statsMu.Lock()
	in, inBy := c.inStats, c.inByType
	c.statsMu.Unlock()
	return ConnStats{Out: out, In: in, OutByType: outBy, InByType: inBy}
}
