package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// binaryMagic identifies the dkcore binary graph format, version 1.
const binaryMagic = "DKG1"

// ErrBadFormat is returned when parsing malformed graph input.
var ErrBadFormat = errors.New("graph: bad format")

// maxLineBytes is the longest line ReadEdgeList accepts.
const maxLineBytes = 1 << 20

// ReadEdgeList parses a whitespace-separated edge list, one edge per line,
// in O(n+m) time. Lines starting with '#' or '%' and blank lines are
// ignored (SNAP datasets use '#' comments); fields after the second are
// ignored; a line longer than 1 MiB is an error. Node identifiers may be
// arbitrary non-negative 64-bit integers; they are remapped to dense IDs
// in first-appearance order. More than MaxNodes distinct identifiers, or
// more than 2^31−2^15 edges, are an ErrBadFormat error. Of several errors
// the first in input order is returned.
//
// The parse runs on up to min(GOMAXPROCS−1, 4) goroutines besides the
// caller's, at least one; the graph, origID and any error do not depend
// on their number. Only the calling goroutine reads r, and every other
// goroutine has exited when ReadEdgeList returns.
//
// The common line, two unsigned decimals of at most 18 digits separated by
// ASCII whitespace, is parsed in place; any other line (signs, non-ASCII
// whitespace, longer numbers, comments, junk) goes through strings.Fields
// and strconv.ParseInt, which decide what is accepted and word every
// error. The remap is a table indexed by raw ID while the IDs stay within
// a constant factor of the number of nodes seen, so it is O(nodes) in
// memory; sparse or huge IDs fall back to a map.
//
// It returns the graph and origID, where origID[u] is the identifier that
// dense node u had in the input.
func ReadEdgeList(r io.Reader) (g *Graph, origID []int64, err error) {
	// The parse gets the cores the caller leaves free, capped as Build is.
	return readEdgeList(r, max(1, min(runtime.GOMAXPROCS(0)-1, maxBuildWorkers)))
}

// parseEdge parses the common edge-list line in place: optional ASCII
// whitespace, then two unsigned decimals of at most 18 digits (so they
// cannot overflow), each ended by ASCII whitespace or the end of the line.
// Anything after the second number is ignored, as parseFields ignores
// extra fields. ok is false for every other line.
func parseEdge(line []byte) (u, v int64, ok bool) {
	i := skipSpace(line, 0)
	if u, i, ok = parseUint(line, i); !ok {
		return 0, 0, false
	}
	v, _, ok = parseUint(line, skipSpace(line, i))
	return u, v, ok
}

// parseUint reads the decimal at line[i:] and returns it with the index
// just past it.
func parseUint(line []byte, i int) (x int64, end int, ok bool) {
	start := i
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		x = x*10 + int64(d)
	}
	if i == start || i-start > 18 || (i < len(line) && !isSpace(line[i])) {
		return 0, i, false
	}
	return x, i, true
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	return i
}

// isSpace reports whether c is ASCII whitespace as strings.Fields and
// strings.TrimSpace see it: space, or '\t' through '\r'.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// parseFields parses any line parseEdge turns down. skip reports a blank
// or comment line.
func parseFields(text string, lineNo int) (u, v int64, skip bool, err error) {
	line := strings.TrimSpace(text)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return 0, 0, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("%w: line %d: want at least 2 fields, got %d", ErrBadFormat, lineNo, len(fields))
	}
	if u, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
	}
	if v, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
	}
	if u < 0 || v < 0 {
		return 0, 0, false, fmt.Errorf("%w: line %d: negative node id", ErrBadFormat, lineNo)
	}
	return u, v, false, nil
}

// tableSlack bounds the dense-ID table: it grows only to take a raw ID
// below tableSlack × (nodes seen + 1024), and at most doubles past it, so
// it costs at most 8·tableSlack bytes per node, plus a constant.
const tableSlack = 4

// denseIDs numbers raw node IDs densely in first-appearance order, at
// most limit of them (at most MaxNodes, so a dense ID + 1 fits in int32).
// Each raw ID seen is in exactly one of table and sparse.
type denseIDs struct {
	limit  int
	table  []int32       // table[raw] is dense ID + 1; 0 is unseen
	sparse map[int64]int // raw IDs the table could not take when first seen
	origID []int64       // origID[dense] is the raw ID
}

// dense returns raw's dense ID, numbering it if it is new; ok is false if
// it is new and limit IDs are already numbered.
func (d *denseIDs) dense(raw int64) (id int, ok bool) {
	if raw < int64(len(d.table)) {
		if id := d.table[raw]; id != 0 {
			return int(id - 1), true
		}
	}
	if id, ok := d.sparse[raw]; ok {
		return id, true
	}
	id = len(d.origID)
	if id == d.limit {
		return 0, false
	}
	d.origID = append(d.origID, raw)
	if raw >= int64(len(d.table)) && raw < tableSlack*int64(id+1024) {
		d.grow(max(2*int64(len(d.table)), raw+1))
	}
	if raw < int64(len(d.table)) {
		d.table[raw] = int32(id + 1)
		return id, true
	}
	if d.sparse == nil {
		d.sparse = make(map[int64]int)
	}
	d.sparse[raw] = id
	return id, true
}

// known returns raw's dense ID + 1 if the table holds it, else 0: dense's
// common case, small enough to inline.
func (d *denseIDs) known(raw int64) int32 {
	if uint64(raw) < uint64(len(d.table)) {
		return d.table[raw]
	}
	return 0
}

// grow widens the table to size entries and moves into it the sparse IDs
// it now covers, so later lookups of those IDs stay off the map.
func (d *denseIDs) grow(size int64) {
	table := make([]int32, size)
	copy(table, d.table)
	for raw, id := range d.sparse {
		if raw < size {
			table[raw] = int32(id + 1)
			delete(d.sparse, raw)
		}
	}
	d.table = table
}

// WriteEdgeList writes g as a plain edge list with dense node IDs, one
// "u v" line per undirected edge (u < v), preceded by a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes: %d edges: %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	var writeErr error
	line := make([]byte, 0, 2*20+2)
	g.Edges(func(u, v int) bool {
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return fmt.Errorf("graph: write edge list: %w", writeErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	return nil
}

// WriteBinary writes g in the compact dkcore binary format: a 4-byte magic,
// the node count, and per-node delta-encoded sorted adjacency (uvarints).
// The format stores both directions of each edge, trading size for a
// zero-allocation structural load path.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("graph: write binary: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(g.NumNodes())); err != nil {
		return fmt.Errorf("graph: write binary: %w", err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		ns := g.Neighbors(u)
		if err := writeUvarint(uint64(len(ns))); err != nil {
			return fmt.Errorf("graph: write binary: %w", err)
		}
		prev := 0
		for _, v := range ns {
			if err := writeUvarint(uint64(v - prev)); err != nil {
				return fmt.Errorf("graph: write binary: %w", err)
			}
			prev = v
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: write binary: %w", err)
	}
	return nil
}

// ReadBinary reads a graph written by WriteBinary. A node count above
// MaxNodes, and a graph that is not simple and undirected (a repeated
// neighbor, a self-loop, or an arc without its twin), are ErrBadFormat
// errors. Memory grows with the nodes and arcs actually decoded, not
// with the counts the header claims.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: read binary: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: read binary: %w", err)
	}
	if n64 > MaxNodes {
		return nil, fmt.Errorf("%w: node count %d too large", ErrBadFormat, n64)
	}
	n := int(n64)
	// n is only the header's claim: offsets starts at most 2^14+1 long
	// and grows as nodes decode, each from at least one byte.
	offsets := make([]int, 1, min(n, 1<<14)+1)
	var adj []int
	for u := 0; u < n; u++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: read binary: node %d: %w", u, err)
		}
		if deg > MaxNodes {
			return nil, fmt.Errorf("%w: node %d degree %d too large", ErrBadFormat, u, deg)
		}
		offsets = append(offsets, offsets[u]+int(deg))
		prev := 0
		for i := uint64(0); i < deg; i++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: read binary: node %d: %w", u, err)
			}
			if delta >= uint64(n-prev) { // before the sum, which it could wrap
				return nil, fmt.Errorf("%w: node %d has neighbor %d+%d >= %d", ErrBadFormat, u, prev, delta, n)
			}
			v := prev + int(delta)
			if v == u || (delta == 0 && i > 0) {
				return nil, fmt.Errorf("%w: node %d lists itself or neighbor %d twice", ErrBadFormat, u, v)
			}
			adj = append(adj, v)
			prev = v
		}
	}
	// Every arc has its twin, checked in one pass: with rows strictly
	// ascending and nodes visited in order, matched[v] counts v's smaller
	// neighbors seen so far, the twin of arc u→v, v > u, sits at position
	// matched[v] of v's row, and u's row past its matched prefix holds no
	// smaller node.
	matched := make([]int32, len(offsets)-1)
	for u := range matched {
		for _, v := range adj[offsets[u]+int(matched[u]) : offsets[u+1]] {
			if p := offsets[v] + int(matched[v]); v < u || p == offsets[v+1] || adj[p] != u {
				return nil, fmt.Errorf("%w: arc %d→%d has no twin", ErrBadFormat, u, v)
			}
			matched[v]++
		}
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}
