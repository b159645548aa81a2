// Package oocore decomposes graphs whose adjacency does not fit in RAM:
// the out-of-core engine behind dkcore's OutOfCore kind. It is a
// semi-external scan (the O(n)-memory, O(m)-disk model of Gao et al.,
// "K-Core Decomposition on Super Large Graphs with Limited Resources"):
// the O(n) node state (estimates and support counters) stays resident,
// while the O(m) adjacency is split into contiguous node-range blocks,
// each spilled once to disk in the gap-coded varint CSR form of
// internal/transport and never rewritten. Algorithm 1's update rule runs
// block-at-a-time on support counters under a hard byte budget on
// decoded adjacency, enforced by a clock-evicting block cache; an
// estimate drop that leaves a neighbor in another block short of support
// wakes it by raising its block's active count, so nothing but the
// read-only blocks ever touches the disk. Every block is written, but a
// block whose decoded rows fit the budget beside the blocks kept before
// it stays in the cache from the spill on: it is written once and never
// read back unless evicted, so a graph that fits the budget reads
// nothing from disk.
//
// The subsystem has three layers, one per file: the block store
// (blockstore.go: write/load/verify of spilled blocks), the budgeted
// block cache (cache.go: byte budget, pin-on-process, clock eviction,
// hit/miss/spill counters), and the scheduler (oocore.go: the resident
// block with the most active nodes first, then the spilled one).
package oocore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dkcore/internal/chaos"
	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/transport"
)

// ErrCorrupt is wrapped by every load-path failure that means a spill
// file's bytes are wrong (bad magic, wrong block, checksum or decode
// failure) rather than the filesystem failing. Block files are the
// engine's only copy of the adjacency, so a corrupt one aborts the run
// with an error wrapping ErrCorrupt.
var ErrCorrupt = errors.New("oocore: corrupt spill file")

// Spill-file framing. Block and estimate files carry a magic tag, the
// block ID, a payload length, and a CRC32 so a load can verify it is
// reading the block it asked for and that the bytes survived the disk
// round trip. DKB1 blocks held an absolute first neighbor per row; DKB2
// blocks hold graph.AppendRows rows.
const (
	blockMagic = "DKB2"
	estMagic   = "DKE1"
)

// Store is the spill-directory layer of the out-of-core engine: one
// block file (the delta-encoded varint CSR of a contiguous partition)
// per block ID, plus the checkpoint file format (a block's estimates as
// a batch), which the engine no longer writes. A Store is
// single-goroutine, like the engine above it.
type Store struct {
	dir   string
	fs    chaos.FS
	nodes int    // bound on loaded node IDs: the run's n, or graph.MaxNodes
	enc   []byte // reused frame-assembly buffer for every write path
	pay   []byte // reused payload buffer (must not alias enc)
}

// NewStore returns a Store rooted at dir, which must already exist,
// backed by the real filesystem.
func NewStore(dir string) *Store { return NewStoreFS(dir, chaos.OS{}) }

// NewStoreFS returns a Store rooted at dir whose I/O goes through fs —
// the seam chaos tests use to inject short writes, EIO, and
// crash-at-byte-N kill points.
func NewStoreFS(dir string, fs chaos.FS) *Store {
	return &Store{dir: dir, fs: fs, nodes: graph.MaxNodes}
}

func (st *Store) blockPath(id int) string {
	return filepath.Join(st.dir, fmt.Sprintf("block-%06d.blk", id))
}

func (st *Store) estPath(id int) string {
	return filepath.Join(st.dir, fmt.Sprintf("block-%06d.est", id))
}

// framed assembles header+payload in the store's reused buffer: magic,
// block ID, payload length, CRC32 of the payload, payload.
func (st *Store) framed(magic string, id int, payload []byte) []byte {
	buf := st.enc[:0]
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	st.enc = buf
	return buf
}

// unframe verifies a spill file's header against the expected magic and
// block ID and returns its checked payload. Every failure wraps
// ErrCorrupt: the bytes are wrong, not the filesystem.
func unframe(data []byte, magic string, id int) ([]byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("oocore: block %d: bad magic: %w", id, ErrCorrupt)
	}
	data = data[len(magic):]
	gotID, n := binary.Uvarint(data)
	if n <= 0 || gotID != uint64(id) {
		return nil, fmt.Errorf("oocore: block %d: header names block %d: %w", id, gotID, ErrCorrupt)
	}
	data = data[n:]
	plen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("oocore: block %d: bad payload length: %w", id, ErrCorrupt)
	}
	data = data[n:]
	if len(data) < 4 || plen != uint64(len(data)-4) {
		return nil, fmt.Errorf("oocore: block %d: payload length %d does not match file: %w", id, plen, ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(data[:4])
	payload := data[4:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("oocore: block %d: checksum mismatch (file %08x, payload %08x): %w", id, want, got, ErrCorrupt)
	}
	return payload, nil
}

// writeFileAtomic persists data at path through a same-directory temp
// file: write, fsync, close, rename. A crash at any byte leaves either
// the previous complete file or a stray .tmp that Sweep removes — never
// a torn file at the final path.
func (st *Store) writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := st.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		st.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		st.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		st.fs.Remove(tmp)
		return err
	}
	return st.fs.Rename(tmp, path)
}

// WriteBlock spills a contiguous partition: the count nodes
// [first, first+count) with the neighbors of node first+i at
// flat[off[i]:off[i+1]]. It returns the bytes written.
func (st *Store) WriteBlock(id, first, count int, off, flat []int) (int64, error) {
	return st.writeBlock(id, first, first+count, func(u int) []int { return flat[off[u-first]:off[u-first+1]] })
}

// writeBlock spills the nodes [lo, hi), whose neighbors row returns,
// straight from the rows (the engine passes the graph's Neighbors).
func (st *Store) writeBlock(id, lo, hi int, row func(u int) []int) (int64, error) {
	st.pay = transport.AppendCSRBlock(st.pay[:0], lo, hi, row)
	buf := st.framed(blockMagic, id, st.pay)
	if err := st.writeFileAtomic(st.blockPath(id), buf); err != nil {
		return 0, fmt.Errorf("oocore: write block %d: %w", id, err)
	}
	return int64(len(buf)), nil
}

// LoadBlock reads and verifies block id, returning its first owned
// global ID, zero-based offsets, and concatenated neighbor array, plus
// the bytes read. Verification covers the magic, the embedded block ID,
// the CRC32, and the CSR decode itself, with node IDs bounded by the
// run's node count in an engine's store (graph.MaxNodes in any other).
func (st *Store) LoadBlock(id int) (first int, off, flat []int, bytes int64, err error) {
	return st.loadBlock(id, st.nodes, nil)
}

// loadBlock is LoadBlock for a block of a graph of n nodes, decoding
// into the arrays buf returns for the block's size
// (transport.DecodeCSRBlockInto).
func (st *Store) loadBlock(id, n int, buf func(offs, arcs int) (off, flat []int)) (first int, off, flat []int, bytes int64, err error) {
	data, err := st.fs.ReadFile(st.blockPath(id))
	if err != nil {
		return 0, nil, nil, 0, fmt.Errorf("oocore: load block %d: %w", id, err)
	}
	payload, err := unframe(data, blockMagic, id)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	first, off, flat, err = transport.DecodeCSRBlockInto(payload, n, buf)
	if err != nil {
		return 0, nil, nil, 0, fmt.Errorf("oocore: block %d: %v: %w", id, err, ErrCorrupt)
	}
	return first, off, flat, int64(len(data)), nil
}

// WriteCheckpoint persists a batch of (global ID, estimate) pairs as
// block id's checkpoint file, replacing any previous one, and returns
// the bytes written. A batch out of node order is sorted in place (the
// batch wire form's requirement). The engine no longer calls it: its
// estimates stay resident and are never persisted.
func (st *Store) WriteCheckpoint(id int, ckpt core.Batch) (int64, error) {
	st.pay = transport.AppendBatch(st.pay[:0], ckpt)
	buf := st.framed(estMagic, id, st.pay)
	if err := st.writeFileAtomic(st.estPath(id), buf); err != nil {
		return 0, fmt.Errorf("oocore: write checkpoint %d: %w", id, err)
	}
	return int64(len(buf)), nil
}

// LoadCheckpoint reads block id's checkpoint batch; ok is false when
// none has been written. The engine no longer calls it.
func (st *Store) LoadCheckpoint(id int) (ckpt core.Batch, bytes int64, ok bool, err error) {
	data, err := st.fs.ReadFile(st.estPath(id))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("oocore: load checkpoint %d: %w", id, err)
	}
	payload, err := unframe(data, estMagic, id)
	if err != nil {
		return nil, 0, false, err
	}
	ckpt, err = transport.DecodeBatch(payload)
	if err != nil {
		return nil, 0, false, fmt.Errorf("oocore: checkpoint %d: %v: %w", id, err, ErrCorrupt)
	}
	return ckpt, int64(len(data)), true, nil
}

// BlockStoreBytes sums the sizes of the spilled block files — the
// footprint the memory-bound acceptance gate compares against the cache
// budget. Checkpoint files are excluded: they are not the graph's
// spilled form.
func (st *Store) BlockStoreBytes() (int64, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".blk" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// Sweep is the startup recovery pass over the spill directory: stray
// .tmp files (a crash between write and rename) are deleted, and every
// .blk and .est file is verified end to end — frame header, checksum,
// and payload decode, rows bounded as LoadBlock bounds them. Torn files
// are quarantined under a .torn suffix so later loads see a clean miss
// instead of reading garbage. It returns the quarantined file names.
func (st *Store) Sweep() ([]string, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("oocore: sweep: %w", err)
	}
	var quarantined []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		ext := filepath.Ext(name)
		if ext == ".tmp" {
			if err := st.fs.Remove(filepath.Join(st.dir, name)); err != nil {
				return quarantined, fmt.Errorf("oocore: sweep: %w", err)
			}
			continue
		}
		var id int
		if n, err := fmt.Sscanf(name, "block-%d", &id); n != 1 || err != nil {
			continue
		}
		var verr error
		switch ext {
		case ".blk":
			_, _, _, _, verr = st.LoadBlock(id)
		case ".est":
			_, _, _, verr = st.LoadCheckpoint(id)
		default:
			continue
		}
		if verr == nil {
			continue
		}
		if !errors.Is(verr, ErrCorrupt) {
			return quarantined, fmt.Errorf("oocore: sweep: %w", verr)
		}
		path := filepath.Join(st.dir, name)
		if err := st.fs.Rename(path, path+".torn"); err != nil {
			return quarantined, fmt.Errorf("oocore: sweep: %w", err)
		}
		quarantined = append(quarantined, name)
	}
	return quarantined, nil
}
