package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the root of every injected I/O failure (the simulated
// EIO); callers distinguish it from real filesystem errors with
// errors.Is.
var ErrInjected = errors.New("chaos: injected I/O fault")

// ErrCrashed is returned by every operation on a FaultFS after its
// crash-at-byte-N kill point has fired: the simulated process is dead
// and only a fresh filesystem (a "restart") can touch the directory
// again.
var ErrCrashed = errors.New("chaos: simulated crash")

// File is the open-file surface the block store needs: sequential
// writes, durability, close. *os.File satisfies it.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close closes the file.
	Close() error
}

// FS is the filesystem seam threaded through the out-of-core block
// store. OS is the real implementation; FaultFS injects faults in front
// of any other.
type FS interface {
	// ReadFile reads the named file whole.
	ReadFile(name string) ([]byte, error)
	// OpenFile opens the named file with the given flag and permissions.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadDir lists the named directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// MkdirTemp creates a new directory in dir (the temp root if empty)
	// named by pattern, as os.MkdirTemp does, and returns its path.
	MkdirTemp(dir, pattern string) (string, error)
	// RemoveAll removes path and everything under it.
	RemoveAll(path string) error
}

// OS is the passthrough FS backed by the os package.
type OS struct{}

// ReadFile calls os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// OpenFile calls os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename calls os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove calls os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir calls os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll calls os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// MkdirTemp calls os.MkdirTemp.
func (OS) MkdirTemp(dir, pattern string) (string, error) { return os.MkdirTemp(dir, pattern) }

// RemoveAll calls os.RemoveAll.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// FSPlan configures the fault schedule of one wrapped filesystem.
// Probabilities are per operation and only consulted while the
// injector's global budget lasts. The zero value is a transparent plan.
type FSPlan struct {
	// ErrProb injects an EIO-style error on OpenFile and on writes.
	ErrProb float64
	// ReadErrProb injects an EIO-style error on ReadFile.
	ReadErrProb float64
	// ShortProb makes a write persist only a prefix before failing.
	ShortProb float64
	// CrashAfterBytes, when positive, kills the filesystem once that
	// many bytes have been written in total: the write in flight is
	// truncated at the boundary and every later operation returns
	// ErrCrashed until a fresh FS ("restart") replaces this one.
	CrashAfterBytes int64
	// TornRenameProb silently replaces a rename's destination with a
	// truncated prefix of the source — the on-disk picture of a crash
	// between write and rename on a non-atomic filesystem.
	TornRenameProb float64
	// TornRenameMatch restricts torn renames to destinations containing
	// the substring (e.g. ".est"); empty matches every rename.
	TornRenameMatch string
}

// FaultFS is an FS wrapped in a seeded fault schedule. All faults are
// drawn from one deterministic generator in operation order, recorded
// in the injector's log, and charged to its global budget.
type FaultFS struct {
	fs   FS
	in   *Injector
	plan FSPlan

	written atomic.Int64
	crashed atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapFS wraps fs in the injector's fault schedule under the given name
// (the schedule derives from it).
func (in *Injector) WrapFS(fs FS, name string, plan FSPlan) *FaultFS {
	return &FaultFS{fs: fs, in: in, plan: plan, rng: in.rng("fs/" + name)}
}

// Crashed reports whether the crash-at-byte-N kill point has fired.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// draw runs fn under the schedule lock and reports its verdict.
func (f *FaultFS) draw(fn func(r *rand.Rand) bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fn(f.rng)
}

// ReadFile reads the named file, or fails per the schedule.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	if f.draw(func(r *rand.Rand) bool { return r.Float64() < f.plan.ReadErrProb }) &&
		f.in.take("fs", name, "read", "eio", "ReadFile failed") {
		return nil, fmt.Errorf("read %s: %w", name, ErrInjected)
	}
	return f.fs.ReadFile(name)
}

// OpenFile opens the named file, or fails per the schedule. Writes
// through the returned file are themselves subject to the schedule.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	if f.draw(func(r *rand.Rand) bool { return r.Float64() < f.plan.ErrProb }) &&
		f.in.take("fs", name, "open", "eio", "OpenFile failed") {
		return nil, fmt.Errorf("open %s: %w", name, ErrInjected)
	}
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// Rename moves oldpath to newpath, possibly leaving a silently torn
// destination per the schedule.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	if f.plan.TornRenameProb > 0 &&
		(f.plan.TornRenameMatch == "" || strings.Contains(newpath, f.plan.TornRenameMatch)) {
		var keepFrac float64
		torn := f.draw(func(r *rand.Rand) bool {
			if r.Float64() >= f.plan.TornRenameProb {
				return false
			}
			keepFrac = r.Float64()
			return true
		})
		if torn {
			data, err := f.fs.ReadFile(oldpath)
			if err != nil {
				return err
			}
			keep := int(keepFrac * float64(len(data)))
			if !f.in.take("fs", newpath, "rename", "torn-rename", fmt.Sprintf("%d of %d bytes survive", keep, len(data))) {
				return f.fs.Rename(oldpath, newpath)
			}
			w, err := f.fs.OpenFile(newpath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			if _, err := w.Write(data[:keep]); err != nil {
				w.Close()
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			return f.fs.Remove(oldpath)
		}
	}
	return f.fs.Rename(oldpath, newpath)
}

// Remove deletes the named file.
func (f *FaultFS) Remove(name string) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	return f.fs.Remove(name)
}

// ReadDir lists the named directory.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	return f.fs.ReadDir(name)
}

// MkdirAll creates the named directory and any missing parents.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	return f.fs.MkdirAll(path, perm)
}

// MkdirTemp creates a new directory in dir named by pattern.
func (f *FaultFS) MkdirTemp(dir, pattern string) (string, error) {
	if f.crashed.Load() {
		return "", ErrCrashed
	}
	return f.fs.MkdirTemp(dir, pattern)
}

// RemoveAll removes path and everything under it.
func (f *FaultFS) RemoveAll(path string) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	return f.fs.RemoveAll(path)
}

// faultFile is the write-side injection point: short writes, EIO, and
// the crash-at-byte-N kill point all fire here.
type faultFile struct {
	File
	fs   *FaultFS
	name string
}

func (w *faultFile) Write(p []byte) (int, error) {
	fs := w.fs
	if fs.crashed.Load() {
		return 0, ErrCrashed
	}
	if limit := fs.plan.CrashAfterBytes; limit > 0 {
		already := fs.written.Load()
		if already+int64(len(p)) > limit {
			keep := int(max64(0, limit-already))
			if fs.in.take("fs", w.name, "write", "crash", fmt.Sprintf("killed after byte %d, %d of %d bytes persisted", limit, keep, len(p))) {
				fs.crashed.Store(true)
				n, _ := w.File.Write(p[:keep])
				fs.written.Add(int64(n))
				return n, ErrCrashed
			}
		}
	}
	if fs.draw(func(r *rand.Rand) bool { return r.Float64() < fs.plan.ErrProb }) &&
		fs.in.take("fs", w.name, "write", "eio", fmt.Sprintf("%d bytes refused", len(p))) {
		return 0, fmt.Errorf("write %s: %w", w.name, ErrInjected)
	}
	var short bool
	var keep int
	if len(p) > 0 {
		short = fs.draw(func(r *rand.Rand) bool {
			if r.Float64() >= fs.plan.ShortProb {
				return false
			}
			keep = r.Intn(len(p))
			return true
		})
	}
	if short && fs.in.take("fs", w.name, "write", "short", fmt.Sprintf("%d of %d bytes persisted", keep, len(p))) {
		n, err := w.File.Write(p[:keep])
		fs.written.Add(int64(n))
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("write %s: %w (short write)", w.name, ErrInjected)
	}
	n, err := w.File.Write(p)
	fs.written.Add(int64(n))
	return n, err
}

// Sync flushes the file, or reports the crash.
func (w *faultFile) Sync() error {
	if w.fs.crashed.Load() {
		return ErrCrashed
	}
	return w.File.Sync()
}
