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

// binaryMagic identifies the dkcore binary graph format, version 2.
const binaryMagic = "DKG2"

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

// WriteBinary writes g in the compact dkcore binary format: the 4-byte
// magic "DKG2", the node count as a uvarint, then the rows of all nodes
// in the form of AppendRows. The format stores both directions of each
// edge, trading size for a load that sizes its arrays from the degrees.
func WriteBinary(w io.Writer, g *Graph) error {
	buf := binary.AppendUvarint([]byte(binaryMagic), uint64(g.NumNodes()))
	buf = AppendRows(buf, 0, g.NumNodes(), g.Neighbors)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("graph: write binary: %w", err)
	}
	return nil
}

// ReadBinary reads a graph written by WriteBinary. A node count above
// MaxNodes, rows DecodeRows rejects, an arc without its twin, and a file
// in the retired "DKG1" format are ErrBadFormat errors. Memory grows
// with the bytes actually read, not with the counts the header claims.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read binary: %w", err)
	}
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("graph: read binary: %w", io.ErrUnexpectedEOF)
	}
	switch magic := string(data[:len(binaryMagic)]); magic {
	case binaryMagic:
	case "DKG1":
		return nil, fmt.Errorf("%w: a DKG1 file, a format this version no longer reads: regenerate it with WriteBinary or kcore-gen -format binary", ErrBadFormat)
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	data = data[len(binaryMagic):]
	n64, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("graph: read binary: node count: %w", io.ErrUnexpectedEOF)
	}
	if n64 > MaxNodes {
		return nil, fmt.Errorf("%w: node count %d too large", ErrBadFormat, n64)
	}
	offsets, adj, err := DecodeRows[int](data[k:], 0, int(n64), int(n64), nil)
	if err != nil {
		return nil, err
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

// readAll reads r to its end into a slice of exactly the bytes read. It
// reads into chunks that double from 4 KiB up to 1 MiB and copies them
// into the result once, so it allocates about twice the bytes read plus
// at most 1 MiB, where a buffer grown in place allocates up to four
// times them.
func readAll(r io.Reader) ([]byte, error) {
	var chunks [][]byte
	size := 0
	for chunk := 4 << 10; ; chunk = min(2*chunk, 1<<20) {
		buf := make([]byte, chunk)
		n, err := io.ReadFull(r, buf)
		chunks = append(chunks, buf[:n])
		size += n
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	data := make([]byte, 0, size)
	for _, c := range chunks {
		data = append(data, c...)
	}
	return data, nil
}
