package transport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"dkcore/internal/core"
)

// byteConn adapts a byte slice to the io.ReadWriteCloser Conn expects:
// reads drain the slice, writes are discarded.
type byteConn struct{ r *bytes.Reader }

func (c byteConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c byteConn) Write(p []byte) (int, error) { return len(p), nil }
func (c byteConn) Close() error                { return nil }

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader: it must
// return frames or errors, never panic, and a frame it does return must
// round-trip through Send.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealed(0, 0, 0, 1, 7))
	f.Add(sealed(0, 0, 0, 6, 3, 'h', 'e', 'l', 'l', 'o'))
	f.Add(sealed(0, 0, 0, 0, 0))                  // zero length
	f.Add(sealed(0xff, 0xff, 0xff, 0xff, 1))      // absurd length
	f.Add(sealed(0x10, 0, 0, 0, 1))               // 256 MiB claim, no body
	f.Add(sealed(0, 0, 0, 3, 9, 1, 2))            // exact small frame
	f.Add(append(sealed(0, 0, 0, 2, 9, 1), 0, 0)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(byteConn{bytes.NewReader(data)})
		for i := 0; i < 16; i++ {
			typ, payload, err := c.Recv()
			if err != nil {
				break
			}
			// A decoded frame must re-encode to a decodable frame.
			var buf bytes.Buffer
			echo := NewConn(nopCloser{&buf})
			if err := echo.Send(typ, payload); err != nil {
				t.Fatalf("re-send of decoded frame failed: %v", err)
			}
			back := NewConn(byteConn{bytes.NewReader(buf.Bytes())})
			typ2, payload2, err := back.Recv()
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame round trip: typ %d->%d payload %q->%q err %v",
					typ, typ2, payload, payload2, err)
			}
		}
	})
}

// sealed appends the checksum trailer a sender would put after the
// given header and body bytes.
func sealed(frame ...byte) []byte {
	return binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
}

type nopCloser struct{ io.ReadWriter }

func (nopCloser) Close() error { return nil }

// FuzzCodec feeds arbitrary bytes to every payload decoder: they must
// error or produce values that round-trip, never panic or over-allocate.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(EncodeBatch(core.Batch{{Node: 3, Core: 2}, {Node: 9, Core: 1}}))
	f.Add(EncodeIntSlice([]int{1, 2, 3}))
	f.Add(EncodeString(nil, "hello"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint
	f.Add([]byte{0x80})                                                       // truncated uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		if batch, err := DecodeBatch(data); err == nil {
			if uint64(len(batch)) > uint64(len(data)) {
				t.Fatalf("batch of %d entries from %d bytes", len(batch), len(data))
			}
			re := EncodeBatch(batch)
			back, err := DecodeBatch(re)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			sortBatch(batch)
			if !reflect.DeepEqual(back, batch) && !(len(back) == 0 && len(batch) == 0) {
				t.Fatalf("batch round trip: %v != %v", back, batch)
			}
		}
		if xs, n, err := DecodeIntSlice(data); err == nil {
			if n > len(data) || len(xs) > len(data) {
				t.Fatalf("int slice consumed %d of %d bytes for %d entries", n, len(data), len(xs))
			}
			re := EncodeIntSlice(xs)
			back, _, err := DecodeIntSlice(re)
			if err != nil || !reflect.DeepEqual(back, xs) && !(len(back) == 0 && len(xs) == 0) {
				t.Fatalf("int slice round trip: %v != %v (%v)", back, xs, err)
			}
		}
		if s, n, err := DecodeString(data); err == nil {
			if n > len(data) || len(s) > len(data) {
				t.Fatalf("string of %d bytes consumed %d of %d", len(s), n, len(data))
			}
			back, _, err := DecodeString(EncodeString(nil, s))
			if err != nil || back != s {
				t.Fatalf("string round trip: %q != %q (%v)", back, s, err)
			}
		}
	})
}

// sortBatch orders a batch by node ID the way EncodeBatch does, so
// round-trip comparison is order-insensitive.
func sortBatch(b core.Batch) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].Node < b[j-1].Node; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}
