package oocore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"dkcore/internal/chaos"
)

// memFS is a chaos.FS held in memory, for tests that run the engine many
// times and have no use for durability: a Sync costs nothing, and no
// spill file reaches the kernel. Directories are implicit; ReadDir lists the
// files directly under a path. Single-goroutine, like the engine.
type memFS struct {
	files map[string][]byte
	dirs  int // directories MkdirTemp has named
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) ReadFile(name string) ([]byte, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return bytes.Clone(data), nil
}

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	if _, ok := m.files[name]; !ok || flag&os.O_TRUNC != 0 {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	data, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	var entries []os.DirEntry
	for path, data := range m.files {
		if filepath.Dir(path) == filepath.Clean(name) {
			entries = append(entries, fs.FileInfoToDirEntry(memInfo{filepath.Base(path), int64(len(data))}))
		}
	}
	slices.SortFunc(entries, func(a, b os.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return entries, nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) MkdirTemp(dir, pattern string) (string, error) {
	m.dirs++
	return filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.dirs), 1)), nil
}

func (m *memFS) RemoveAll(path string) error {
	for name := range m.files {
		if name == path || strings.HasPrefix(name, path+string(filepath.Separator)) {
			delete(m.files, name)
		}
	}
	return nil
}

// memFile appends its writes to its file in the memFS.
type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memInfo is the fs.FileInfo of a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
