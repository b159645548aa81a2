package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the straightforward text reader and CSR builder the
// package used to ship, as the reference the differential tests and
// FuzzReadEdgeList hold the linear-time code to: a map remap, one
// strings.Fields and strconv.ParseInt per line, and a comparison sort of
// the whole edge list.

// referenceReadEdgeList is ReadEdgeList with every line parsed by
// strings.Fields and every raw ID remapped through a map.
func referenceReadEdgeList(r io.Reader) (g *Graph, origID []int64, err error) {
	toDense := make(map[int64]int)
	b := NewBuilder(0)
	dense := func(raw int64) int {
		if id, ok := toDense[raw]; ok {
			return id
		}
		id := len(origID)
		toDense[raw] = id
		origID = append(origID, raw)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("%w: line %d: want at least 2 fields, got %d", ErrBadFormat, lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("%w: line %d: negative node id", ErrBadFormat, lineNo)
		}
		b.AddEdge(dense(u), dense(v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	b.EnsureNodes(len(origID))
	return referenceBuild(b), origID, nil
}

// referenceBuild is Builder.Build by sorting: drop self-loops, sort and
// dedupe the canonical (u<v) edge list, then fill CSR rows in edge order.
func referenceBuild(b *Builder) *Graph {
	edges := make([][2]int, 0, b.NumEdgesAdded())
	for c, chunk := range b.chunks {
		if c == len(b.chunks)-1 {
			chunk = chunk[:b.tail]
		}
		for _, e := range chunk {
			if e[0] != e[1] {
				edges = append(edges, [2]int{int(e[0]), int(e[1])})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	edges = uniq

	offsets := make([]int, b.n+1)
	for _, e := range edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]int, offsets[b.n])
	cursor := make([]int, b.n)
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[offsets[u]+cursor[u]] = v
		cursor[u]++
		adj[offsets[v]+cursor[v]] = u
		cursor[v]++
	}
	for u := 0; u < b.n; u++ {
		sort.Ints(adj[offsets[u]:offsets[u+1]])
	}
	return &Graph{offsets: offsets, adj: adj}
}
