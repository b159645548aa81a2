package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dkcore/internal/core"
)

// sendTo encodes one frame into a fresh buffer using a Conn with the
// given compression setting and returns the raw wire bytes.
func sendTo(t *testing.T, compress bool, typ uint8, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(nopCloser{&buf})
	c.SetCompression(compress)
	if err := c.Send(typ, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	return buf.Bytes()
}

// recvFrom decodes one frame from wire bytes with the given compression
// setting.
func recvFrom(t *testing.T, compress bool, wire []byte) (uint8, []byte, error) {
	t.Helper()
	c := NewConn(byteConn{bytes.NewReader(wire)})
	c.SetCompression(compress)
	return c.Recv()
}

func TestCompressionRoundTrip(t *testing.T) {
	payload := []byte(strings.Repeat("estimate batch bytes compress well ", 200))
	wire := sendTo(t, true, 7, payload)
	if len(wire) >= len(payload) {
		t.Fatalf("compressible payload did not shrink: %d wire vs %d raw", len(wire), len(payload))
	}
	if wire[4]&CompressedFlag == 0 {
		t.Fatalf("type byte %#x missing compressed flag", wire[4])
	}
	typ, got, err := recvFrom(t, true, wire)
	if err != nil || typ != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ=%d err=%v equal=%v", typ, err, bytes.Equal(got, payload))
	}
}

func TestSmallFramesStayRaw(t *testing.T) {
	payload := []byte("tiny")
	wire := sendTo(t, true, 3, payload)
	if wire[4] != 3 {
		t.Fatalf("small frame got compressed bit: type %#x", wire[4])
	}
	typ, got, err := recvFrom(t, true, wire)
	if err != nil || typ != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ=%d err=%v", typ, err)
	}
}

func TestIncompressiblePayloadStaysRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 4096)
	rng.Read(payload)
	wire := sendTo(t, true, 5, payload)
	if wire[4] != 5 {
		t.Fatalf("incompressible frame got compressed bit: type %#x", wire[4])
	}
	if len(wire) != len(payload)+frameOverhead {
		t.Fatalf("incompressible frame grew: %d wire vs %d raw", len(wire), len(payload))
	}
}

func TestCompressedFrameRejectedWithoutNegotiation(t *testing.T) {
	payload := []byte(strings.Repeat("x", 1024))
	wire := sendTo(t, true, 7, payload)
	if wire[4]&CompressedFlag == 0 {
		t.Skip("payload did not compress")
	}
	_, _, err := recvFrom(t, false, wire)
	if !errors.Is(err, ErrCompressionNotNegotiated) {
		t.Fatalf("want ErrCompressionNotNegotiated, got %v", err)
	}
}

func TestSendRejectsReservedType(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(nopCloser{&buf})
	if err := c.Send(CompressedFlag|1, nil); !errors.Is(err, ErrReservedFrameType) {
		t.Fatalf("want ErrReservedFrameType, got %v", err)
	}
}

func TestCorruptCompressedPayloadErrors(t *testing.T) {
	wire := sendTo(t, true, 7, []byte(strings.Repeat("y", 2048)))
	if wire[4]&CompressedFlag == 0 {
		t.Skip("payload did not compress")
	}
	// Flip bytes in the middle of the deflate stream.
	for i := 10; i < len(wire)-4; i += 7 {
		wire[i] ^= 0xff
	}
	if _, _, err := recvFrom(t, true, wire); err == nil {
		t.Fatal("corrupted deflate stream decoded cleanly")
	}
}

func TestConnStatsAccounting(t *testing.T) {
	payload := []byte(strings.Repeat("stats frame payload ", 100))
	var buf bytes.Buffer
	src := NewConn(nopCloser{&buf})
	src.SetCompression(true)
	if err := src.Send(7, payload); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(3, []byte("raw")); err != nil {
		t.Fatal(err)
	}
	out := src.Stats().Out
	if out.Frames != 2 || out.RawBytes != int64(len(payload)+3) {
		t.Fatalf("out stats: %+v", out)
	}
	if out.WireBytes >= out.RawBytes {
		t.Fatalf("compression did not reduce wire bytes: %+v", out)
	}
	byType := src.Stats().OutByType
	if byType[7].Frames != 1 || byType[3].Frames != 1 {
		t.Fatalf("per-type out stats: t7=%+v t3=%+v", byType[7], byType[3])
	}

	dst := NewConn(byteConn{bytes.NewReader(buf.Bytes())})
	dst.SetCompression(true)
	for i := 0; i < 2; i++ {
		if _, _, err := dst.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	in := dst.Stats().In
	if in.Frames != 2 || in.RawBytes != out.RawBytes || in.WireBytes != out.WireBytes {
		t.Fatalf("in stats %+v != out stats %+v", in, out)
	}
}

func TestScanBatchMatchesDecode(t *testing.T) {
	batch := core.Batch{{Node: 3, Core: 2}, {Node: 9, Core: 1}, {Node: 40, Core: 7}}
	enc := EncodeBatch(batch)
	pairs, err := ScanBatch(enc)
	if err != nil || pairs != len(batch) {
		t.Fatalf("scan: pairs=%d err=%v", pairs, err)
	}
	if _, err := ScanBatch(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated batch scanned cleanly")
	}
	if _, err := ScanBatch(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes scanned cleanly")
	}
}

// FuzzCompressedFrame feeds arbitrary bytes to a compression-enabled
// frame reader: it must return frames or errors, never panic, and a
// frame it does return must round-trip through a compressed Send. This
// is the decoder the cluster exposes to the network once flate is
// negotiated, so the bomb/garbage hardening is load-bearing.
func FuzzCompressedFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealed(0, 0, 0, 1, 7))
	f.Add(sealed(0, 0, 0, 2, CompressedFlag|7, 0x00)) // compressed bit, garbage deflate
	var seed bytes.Buffer
	src := NewConn(nopCloser{&seed})
	src.SetCompression(true)
	_ = src.Send(9, []byte(strings.Repeat("seed payload ", 64)))
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(byteConn{bytes.NewReader(data)})
		c.SetCompression(true)
		for i := 0; i < 16; i++ {
			typ, payload, err := c.Recv()
			if err != nil {
				break
			}
			if typ >= CompressedFlag {
				t.Fatalf("Recv surfaced reserved type %#x", typ)
			}
			var buf bytes.Buffer
			echo := NewConn(nopCloser{&buf})
			echo.SetCompression(true)
			if err := echo.Send(typ, payload); err != nil {
				t.Fatalf("re-send of decoded frame failed: %v", err)
			}
			back := NewConn(byteConn{bytes.NewReader(buf.Bytes())})
			back.SetCompression(true)
			typ2, payload2, err := back.Recv()
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("compressed frame round trip: typ %d->%d err %v", typ, typ2, err)
			}
		}
	})
}
