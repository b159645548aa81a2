package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"

	"dkcore/internal/core"
)

func TestFrameRoundTripOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	go func() {
		_ = ca.Send(7, []byte("hello"))
		_ = ca.Send(8, nil)
	}()
	typ, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || string(payload) != "hello" {
		t.Fatalf("got type %d payload %q", typ, payload)
	}
	typ, payload, err = cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != 8 || len(payload) != 0 {
		t.Fatalf("got type %d payload %q, want empty type 8", typ, payload)
	}
}

func TestFrameEOFOnClose(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go ca.Close()
	if _, _, err := cb.Recv(); !errors.Is(err, io.EOF) && err == nil {
		t.Fatalf("err = %v, want EOF-ish", err)
	}
}

// TestFrameChecksumCatchesFlips flips one bit at every position of a
// raw and of a compressed frame: each flip must fail Recv, and every
// flip that leaves the length field intact must fail it with
// ErrCorrupt.
func TestFrameChecksumCatchesFlips(t *testing.T) {
	for _, compress := range []bool{false, true} {
		wire := sendTo(t, compress, 7, bytes.Repeat([]byte("checksummed payload "), 8))
		for i := range wire {
			flipped := bytes.Clone(wire)
			flipped[i] ^= 0x10
			_, _, err := recvFrom(t, compress, flipped)
			if err == nil {
				t.Fatalf("compress=%v: flip at byte %d of %d decoded cleanly", compress, i, len(wire))
			}
			if i >= 4 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("compress=%v: flip at byte %d: err %v, want ErrCorrupt", compress, i, err)
			}
		}
	}
}

func TestFrameOverTCPLoopback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		c := NewConn(conn)
		defer c.Close()
		typ, payload, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(typ+1, payload)
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(41, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != 42 || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("echo mismatch: type %d payload %v", typ, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	check := func(nodes []uint16, cores []uint8) bool {
		n := len(nodes)
		if len(cores) < n {
			n = len(cores)
		}
		batch := make(core.Batch, 0, n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			node := int(nodes[i])
			if seen[node] {
				continue // duplicate node IDs are not meaningful in a batch
			}
			seen[node] = true
			batch = append(batch, core.EstimateMsg{Node: node, Core: int(cores[i])})
		}
		decoded, err := DecodeBatch(EncodeBatch(batch))
		if err != nil {
			return false
		}
		if len(decoded) != len(batch) {
			return false
		}
		want := map[int]int{}
		for _, m := range batch {
			want[m.Node] = m.Core
		}
		for _, m := range decoded {
			if want[m.Node] != m.Core {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	tests := [][]byte{
		{},           // missing count
		{0x02, 0x01}, // truncated pairs
		{0x01, 0x05}, // missing estimate
		append(EncodeBatch(core.Batch{{Node: 1, Core: 2}}), 0xFF), // trailing
	}
	for i, data := range tests {
		if _, err := DecodeBatch(data); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestIntSliceRoundTrip(t *testing.T) {
	check := func(raw []uint16) bool {
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		buf := EncodeIntSlice(xs)
		got, consumed, err := DecodeIntSlice(buf)
		if err != nil || consumed != len(buf) || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "x", "127.0.0.1:9999", "héllo wörld"} {
		buf := EncodeString(nil, s)
		got, consumed, err := DecodeString(buf)
		if err != nil || consumed != len(buf) || got != s {
			t.Fatalf("round trip %q failed: got %q err %v", s, got, err)
		}
	}
	if _, _, err := DecodeString([]byte{0x05, 'a'}); err == nil {
		t.Fatalf("truncated string accepted")
	}
}
