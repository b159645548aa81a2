package stream

// The published tables' geometry, for the copy-on-write tests.
const (
	LeafSize = leafSize
	DirSpan  = 1 << spanShift // entries under one directory
)
