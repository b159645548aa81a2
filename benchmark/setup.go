package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"dkcore"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// inputFiles names what set-up writes into a workload's directory. The
// timed legs read these files; they never see the generator.
type inputFiles struct {
	dir    string
	text   string // "u v" edge list, what kcore-coord / kcore-serve ingest
	binary string // compact binary graph, the resident copy's source
	oracle string // sequential coreness, little-endian uint32 per node
	events string // churn stream, "time op u v" text (serve workload only)
}

func filesIn(dir string) inputFiles {
	return inputFiles{
		dir:    dir,
		text:   filepath.Join(dir, "graph.txt"),
		binary: filepath.Join(dir, "graph.bin"),
		oracle: filepath.Join(dir, "oracle.u32"),
		events: filepath.Join(dir, "events.txt"),
	}
}

// edgeChecksum is an order-independent digest of an edge set under a
// node labelling: the sum of a mixed hash of each (min, max) pair. The
// text reader relabels nodes by first appearance, so an order-dependent
// digest could not be compared across the round trip.
func edgeChecksum(g *graph.Graph, label func(int) uint64) uint64 {
	var sum uint64
	g.Edges(func(u, v int) bool {
		a, b := label(u), label(v)
		if a > b {
			a, b = b, a
		}
		x := a*0x9E3779B97F4A7C15 ^ (b + 0xD6E8FEB86659FD93)
		x ^= x >> 32
		x *= 0xD6E8FEB86659FD93
		x ^= x >> 29
		sum += x
		return true
	})
	return sum
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}

// setUp is the whole set-up step, the thing setup_s times: generate the
// graph from the seed, write the graph files and the event stream, and
// compute the oracle coreness.
func setUp(w workloadSpec, seed int64, scale float64, files inputFiles) error {
	if err := os.MkdirAll(files.dir, 0o755); err != nil {
		return err
	}
	g := w.input(seed, scale)
	if err := writeFile(files.text, func(b *bufio.Writer) error { return graph.WriteEdgeList(b, g) }); err != nil {
		return err
	}
	if err := writeFile(files.binary, func(b *bufio.Writer) error { return graph.WriteBinary(b, g) }); err != nil {
		return err
	}
	coreness := kcore.Decompose(g).CorenessValues()
	err := writeFile(files.oracle, func(b *bufio.Writer) error {
		var word [4]byte
		for _, c := range coreness {
			binary.LittleEndian.PutUint32(word[:], uint32(c))
			if _, err := b.Write(word[:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if w.churnEvents == 0 {
		return nil
	}
	events := gen.ChurnEvents(g, scaledN(w.churnEvents, scale, 2*coalescedBurstEvents), 0.5, seed)
	return writeFile(files.events, func(b *bufio.Writer) error { return dkcore.WriteEvents(b, events) })
}

// inputs is what a run holds in memory after reading set-up's files.
type inputs struct {
	files    inputFiles
	g        *graph.Graph
	oracle   []int
	events   []dkcore.EdgeEvent
	checksum uint64
	maxCore  int
}

func loadInputs(w workloadSpec, files inputFiles) (*inputs, error) {
	f, err := os.Open(files.binary)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadBinary(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", files.binary, err)
	}
	raw, err := os.ReadFile(files.oracle)
	if err != nil {
		return nil, err
	}
	if len(raw) != 4*g.NumNodes() {
		return nil, fmt.Errorf("%s: %d bytes for %d nodes", files.oracle, len(raw), g.NumNodes())
	}
	in := &inputs{files: files, g: g, oracle: make([]int, g.NumNodes())}
	for u := range in.oracle {
		in.oracle[u] = int(binary.LittleEndian.Uint32(raw[4*u:]))
		if in.oracle[u] > in.maxCore {
			in.maxCore = in.oracle[u]
		}
	}
	in.checksum = edgeChecksum(g, func(u int) uint64 { return uint64(u) })
	if w.churnEvents > 0 {
		ef, err := os.Open(files.events)
		if err != nil {
			return nil, err
		}
		in.events, err = dkcore.ReadEvents(bufio.NewReaderSize(ef, 1<<20))
		ef.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", files.events, err)
		}
	}
	return in, nil
}
