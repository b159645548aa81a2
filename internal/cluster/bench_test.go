package cluster

import (
	"bytes"
	"compress/flate"
	"io"
	"runtime"
	"testing"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/dataset"
	"dkcore/internal/transport"
)

// BenchmarkConfigFrame is the config codec's layer number. It codes
// host 0's partition of the berkstan analogue (scale 5, seed 1, two
// range-owned hosts, the graph the benchmark's deep workload runs)
// and reports, per adjacency entry, the payload before and after
// deflate at transport.FlateLevel (raw_B/arc, wire_B/arc) and the time
// of encodeConfig plus deflate (encode_ns/arc) and of inflate plus
// decodeConfig (decode_ns/arc).
func BenchmarkConfigFrame(b *testing.B) {
	d, err := dataset.ByKey("berkstan")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build(5, 1)
	lo, hi := core.BlockAssignment{N: g.NumNodes(), H: 2}.Range(0)
	arcs := 0.0
	for u := lo; u < hi; u++ {
		arcs += float64(g.Degree(u))
	}

	var wire bytes.Buffer
	zw, err := flate.NewWriter(&wire, transport.FlateLevel)
	if err != nil {
		b.Fatal(err)
	}
	var raw bytes.Buffer
	zr := flate.NewReader(&wire)
	var encode, decode time.Duration
	var rawBytes, wireBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		payload := encodeConfig(0, 2, g.NumNodes(), g.Neighbors)
		wire.Reset()
		zw.Reset(&wire)
		if _, err := zw.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		rawBytes, wireBytes = len(payload), wire.Len()
		raw.Reset()
		if err := zr.(flate.Resetter).Reset(&wire, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(&raw, zr); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeConfig(raw.Bytes()); err != nil {
			b.Fatal(err)
		}
		encode += mid.Sub(start)
		decode += time.Since(mid)
	}
	b.ReportMetric(float64(rawBytes)/arcs, "raw_B/arc")
	b.ReportMetric(float64(wireBytes)/arcs, "wire_B/arc")
	b.ReportMetric(float64(encode.Nanoseconds())/float64(b.N)/arcs, "encode_ns/arc")
	b.ReportMetric(float64(decode.Nanoseconds())/float64(b.N)/arcs, "decode_ns/arc")
}

// TestHostSetupBytesPerArc gates what a host allocates to set up: the
// config decode, core.NewHostState and InitEstimates for host 0 of the
// berkstan analogue (scale 5, seed 1, two range-owned hosts, the graph
// the benchmark's deep workload runs), per adjacency entry the host
// owns. The bound is the 24.5 B measured with range-owned locals and a
// bitset changed set, plus 10 %.
func TestHostSetupBytesPerArc(t *testing.T) {
	const maxBytesPerArc = 27.0
	d, err := dataset.ByKey("berkstan")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(5, 1)
	payload := encodeConfig(0, 2, g.NumNodes(), g.Neighbors)
	h := &hostRun{res: &HostResult{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := h.applyConfig(payload); err != nil {
		t.Fatal(err)
	}
	h.state.InitEstimates()
	runtime.ReadMemStats(&after)
	lo, hi := core.BlockAssignment{N: g.NumNodes(), H: 2}.Range(0)
	arcs := 0
	for u := lo; u < hi; u++ {
		arcs += g.Degree(u)
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(arcs)
	t.Logf("%d owned nodes, %d arcs, %.1f B allocated per arc", hi-lo, arcs, perArc)
	if perArc > maxBytesPerArc {
		t.Fatalf("host setup allocated %.1f B per adjacency entry, want at most %.1f", perArc, maxBytesPerArc)
	}
}
