package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// ReadEdgeList runs as a pipeline of three stages. The calling goroutine
// reads r in windows of whole lines; parse workers turn each window into
// raw (u, v) pairs; the calling goroutine takes the parsed windows back in
// input order, numbers their IDs through one denseIDs and feeds one
// Builder, parsing a window itself when it reaches the head before any
// worker has started it. Each raw ID is looked up once, by one goroutine, in input
// order, so the numbering is the serial one on any worker count.

const (
	// windowBytes is the size a window's buffer starts at. It grows,
	// doubling up to maxLineBytes, only to hold a longer line. Windows
	// this size let a worker run a few hundred KiB ahead of the remap,
	// which is what absorbs the two stages' jitter, while nine of them
	// in flight (four workers) stay within the 64 B/edge ingest budget
	// of TestReadEdgeListBytesPerEdge.
	windowBytes = 128 << 10
	// maxEmptyReads is how many reads in a row may return neither data
	// nor an error before the input fails with io.ErrNoProgress, as in
	// bufio.Scanner.
	maxEmptyReads = 100
)

// window is one piece of the input, cut at a line end, and what a parse
// worker read from it.
type window struct {
	buf   []byte        // backing store; data is a prefix of it
	data  []byte        // whole lines; the input's last line may be unterminated
	pairs [][2]int64    // raw (u, v) of the edge lines, in order
	lines int           // lines parsed, the bad one included
	bad   []byte        // the first line that failed to parse, or nil
	done  chan struct{} // receives once a worker's parse is done
	// claimed is set by whichever goroutine parses the window: a worker
	// that takes it off the job queue, or the caller when the window
	// reaches the head of the remap with no worker on it. The other skips
	// it, so each window handed out is parsed exactly once.
	claimed atomic.Bool
}

// claim reports whether the calling goroutine is the one to parse w.
func (w *window) claim() bool { return w.claimed.CompareAndSwap(false, true) }

// parseJobs is a parse worker: it parses each window off jobs that the
// caller has not claimed and signals its done.
func parseJobs(jobs <-chan *window) {
	for w := range jobs {
		if w.claim() {
			w.parse()
			w.done <- struct{}{}
		}
	}
}

// parse fills w's pairs, lines and bad from its data. The pairs buffer
// is sized from the window's line count, with room for a quarter more,
// rather than grown by appending; a window reused for more lines than
// that gets a new one.
func (w *window) parse() {
	if lines := bytes.Count(w.data, []byte{'\n'}) + 1; cap(w.pairs) < lines {
		w.pairs = make([][2]int64, 0, lines+lines/4)
	}
	w.pairs, w.lines, w.bad = parseLines(w.data, w.pairs[:0], -1)
}

// parseLines splits data into lines at '\n' and appends the raw (u, v) of
// each edge line to pairs. It stops at the first line that fails to
// parse, returned as bad, or once pairs holds limit pairs (a negative
// limit is none). lines counts the lines read, the last one included.
// bufio.ScanLines drops a '\r' before the '\n'; keeping it changes
// nothing, as parseEdge and parseFields both read it as a space.
func parseLines(data []byte, pairs [][2]int64, limit int) (_ [][2]int64, lines int, bad []byte) {
	for len(data) > 0 && len(pairs) != limit {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		lines++
		u, v, ok := parseEdge(line)
		if !ok {
			var skip bool
			var err error
			if u, v, skip, err = parseFields(string(line), lines); err != nil {
				return pairs, lines, line
			}
			if skip {
				continue
			}
		}
		pairs = append(pairs, [2]int64{u, v})
	}
	return pairs, lines, nil
}

// windowReader cuts r into windows. It reads r as bufio.Scanner with a
// 1 MiB token limit does: a read never reaches past the first 1 MiB of
// the line it ends in, and a line that fills 1 MiB without ending, while
// r has reported nothing, is bufio.ErrTooLong.
type windowReader struct {
	r      io.Reader
	tail   []byte // the last window's unterminated line
	err    error  // why reading stopped: io.EOF, a read error or ErrTooLong
	empty  int    // reads in a row that returned nothing
	closed bool   // the last window has been handed out
}

// next reads the next window into w: the last window's tail, then input
// until w.buf is full or r reports an error. It cuts w.data after the
// last line end and keeps the rest as the next window's tail; once r has
// reported an error (io.EOF included), w.data is everything left. ok is
// false when there is no more input, or a line is too long.
//
// The tail stays in the last window's buffer until the next call copies
// it, so that window must not be reused before then.
func (rd *windowReader) next(w *window) (ok bool) {
	if w.buf == nil {
		w.buf = make([]byte, windowBytes)
	}
	for len(w.buf) <= len(rd.tail) {
		w.buf = make([]byte, min(2*len(w.buf), maxLineBytes))
	}
	n := copy(w.buf, rd.tail)
	for {
		for n < len(w.buf) && rd.err == nil {
			k, err := rd.r.Read(w.buf[n:])
			if k < 0 || k > len(w.buf)-n {
				k, err = 0, bufio.ErrBadReadCount
			}
			n += k
			switch {
			case err != nil:
				rd.err = err
			case k > 0:
				rd.empty = 0
			default:
				if rd.empty++; rd.empty > maxEmptyReads {
					rd.err = io.ErrNoProgress
				}
			}
		}
		if rd.err != nil {
			w.data, rd.tail, rd.closed = w.buf[:n], nil, true
			return n > 0
		}
		if i := bytes.LastIndexByte(w.buf[:n], '\n'); i >= 0 {
			w.data, rd.tail = w.buf[:i+1], w.buf[i+1:n]
			return true
		}
		// One unterminated line fills the buffer.
		if len(w.buf) == maxLineBytes {
			rd.err, rd.closed = bufio.ErrTooLong, true
			return false
		}
		grown := make([]byte, min(2*len(w.buf), maxLineBytes))
		copy(grown, w.buf[:n])
		w.buf = grown
	}
}

// remap is the last stage: it numbers raw IDs densely in input order and
// adds the edges to b.
type remap struct {
	ids   denseIDs
	b     *Builder
	lines int // lines in the windows added so far
}

// add adds w's edges and returns the first error in w: an edge past the
// ID or edge ceiling, or the line w's parse stopped at.
func (m *remap) add(w *window) error {
	ids, b := &m.ids, m.b
	for i, p := range w.pairs {
		du, dv := int(ids.known(p[0]))-1, int(ids.known(p[1]))-1
		if du < 0 || dv < 0 {
			var okU, okV bool
			du, okU = ids.dense(p[0])
			dv, okV = ids.dense(p[1])
			if !okU || !okV {
				return fmt.Errorf("%w: line %d: more than %d distinct node ids", ErrBadFormat, m.lineOf(w, i), ids.limit)
			}
		}
		if b.NumEdgesAdded() == maxEdges {
			return fmt.Errorf("%w: line %d: more than %d edges", ErrBadFormat, m.lineOf(w, i), maxEdges)
		}
		b.AddEdge(du, dv)
	}
	if w.bad != nil {
		_, _, _, err := parseFields(string(w.bad), m.lines+w.lines)
		return err
	}
	m.lines += w.lines
	return nil
}

// lineOf returns the input line number of w's pair i by reading w again
// up to that pair.
func (m *remap) lineOf(w *window, i int) int {
	_, lines, _ := parseLines(w.data, nil, i+1)
	return m.lines + lines
}

// readEdgeList is ReadEdgeList with the given number of parse workers.
func readEdgeList(r io.Reader, workers int) (*Graph, []int64, error) {
	m := remap{ids: denseIDs{limit: MaxNodes}, b: NewBuilder(0)}
	if err := m.run(r, workers); err != nil {
		return nil, nil, err
	}
	m.b.EnsureNodes(len(m.ids.origID))
	return m.b.Build(), m.ids.origID, nil
}

// run reads all of r through the pipeline into m. Beside the window
// being remapped, at most two windows per worker (two at 0 workers) wait
// for a worker or sit in a parse; remapped windows are reused. The
// caller parses the head window itself when no worker has started it,
// so a busy core never stalls the remap behind a queued window; at 0
// workers it parses every window. Every worker has exited when run
// returns.
func (m *remap) run(r io.Reader, workers int) error {
	// jobs has room for every window in the queue below, so a hand-out
	// finds it full only when it also holds windows the caller claimed.
	jobs := make(chan *window, 2*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			parseJobs(jobs)
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	rd := windowReader{r: r}
	// queue holds the windows handed out, in input order.
	queue := make([]*window, 0, 2*max(workers, 1))
	var free []*window
	// feed reads windows and hands them out until the queue is full. It
	// runs before the window taken off the queue is waited for, so the
	// workers have the next ones meanwhile, and before that window is
	// reused, so the newest window, whose tail the next read copies, is
	// never reused first.
	feed := func() {
		for len(queue) < cap(queue) && !rd.closed {
			var w *window
			if k := len(free) - 1; k >= 0 {
				w, free = free[k], free[:k]
			} else {
				w = &window{done: make(chan struct{}, 1)}
			}
			if !rd.next(w) {
				free = append(free, w)
				return
			}
			// Reset only once the window's data is in place: a worker
			// may still hold it from a hand-out the caller claimed.
			w.claimed.Store(false)
			// Skipped on a full jobs: the caller then parses it.
			select {
			case jobs <- w:
			default:
			}
			queue = append(queue, w)
		}
	}
	for feed(); len(queue) > 0; {
		w := queue[0]
		queue = append(queue[:0], queue[1:]...)
		feed()
		if w.claim() {
			w.parse()
		} else {
			<-w.done
		}
		if err := m.add(w); err != nil {
			return err
		}
		free = append(free, w)
	}
	if rd.err != io.EOF {
		return fmt.Errorf("graph: read edge list: %w", rd.err)
	}
	return nil
}
