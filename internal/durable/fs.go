// Package durable is the single artifact-durability layer of the
// repository: every crash-safe file this system writes — the pipeline's
// resume journal, the explain log, the profile manifest, black-box
// postmortem bundles, the event trace, and the result/bench/corpus JSON
// dumps — goes through one of its three writers instead of hand-rolled
// os.Create/fsync sequences.
//
// The three durability shapes, and the recovery contract each one
// guarantees after a crash at ANY instant (power loss, SIGKILL, panic):
//
//   - JSONL append writers (CreateJSONL/AppendJSONL): every record is
//     flushed to the kernel before Append returns and the file is fsynced
//     on Close. A crash loses at most the record being written; readers
//     built on ScanTornTail drop exactly that torn tail, and AppendJSONL
//     truncates it away before appending new records.
//
//   - Atomic whole-file writes (WriteFileAtomic): temp file in the same
//     directory, write, fsync, rename over the target, fsync the
//     directory. A reader never observes a half-written file — the target
//     either holds the old complete contents or the new complete
//     contents, with at most a stale ".tmp" sibling left to ignore.
//
//   - Completeness-marker directory bundles (CreateDir/Dir.Commit): data
//     files are written and fsynced one by one, then a marker file is
//     written last and the directory fsynced. A bundle without its marker
//     is a partial bundle from a dying process; readers skip it.
//
// All writers take an FS so tests can inject deterministic disk faults
// (internal/durable/faultfs) and the crash harness (cmd/crashtest) can
// kill the process at every registered write site; passing a nil FS
// selects the real filesystem.
package durable

import (
	"io"
	"os"
)

// File is the subset of *os.File the durability layer needs. It is the
// write-side seam fault injection wraps.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	// Truncate cuts the file to size (torn-tail repair).
	Truncate(size int64) error
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Close closes the file.
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam every durable writer goes through. The
// production implementation is OS; internal/durable/faultfs wraps any FS
// with a seeded, deterministic fault schedule.
type FS interface {
	// OpenFile opens a file like os.OpenFile. Opening a directory
	// read-only is supported (SyncDir relies on it).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file, like os.Remove.
	Remove(name string) error
	// MkdirAll creates a directory tree, like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadFile reads a whole file, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Stat stats a path, like os.Stat.
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// fsOr returns fsys, defaulting a nil FS to the real filesystem, so call
// sites can thread an optional seam without nil checks.
func fsOr(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// OpenTrunc creates (truncating) a file for a streaming writer — profile
// WriteTo, metrics dumps — that the caller finishes with SyncClose. It
// is the durable replacement for bare os.Create at artifact sites whose
// payload is produced incrementally.
func OpenTrunc(fsys FS, path string) (File, error) {
	return fsOr(fsys).OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// SyncClose syncs f to stable storage and closes it, returning the first
// error: a Sync failure is not masked by a successful Close, and a Close
// failure after a clean Sync still surfaces. This is the one place the
// `if serr := f.Sync(); err == nil`-style close choreography lives.
func SyncClose(f File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making a preceding rename or file creation
// in it durable. POSIX only guarantees the new directory entry survives a
// crash once the directory itself is synced.
func SyncDir(fsys FS, dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := fsOr(fsys).OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return SyncClose(d)
}
