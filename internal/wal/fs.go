package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the write side of one segment. Sync must not return until
// every byte written so far is durable — it is the group-commit point
// acknowledgements hang off. Writes land at the file offset, which only
// writes move; Truncate sets the file's size (growing it with zeros or
// cutting it) and leaves the offset where it is, as ftruncate does.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS abstracts the filesystem the log lives on. Production uses the
// package-level OSFS; the crashtest harness substitutes an in-memory
// implementation that journals every write and sync so it can
// materialize the exact disk image a power cut at any byte would leave.
// Paths handed to FS methods are always <dir>/<basename> as joined by
// filepath.Join.
type FS interface {
	// MkdirAll ensures the log directory exists.
	MkdirAll(dir string) error
	// Create opens a new segment for writing (truncating any leftover
	// file of the same name).
	Create(name string) (File, error)
	// OpenAppend reopens an existing segment for appending after
	// discarding everything past size — the recovery path that cuts a
	// torn tail back to the last valid record.
	OpenAppend(name string, size int64) (File, error)
	// Open opens a segment for reading (replay).
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the base names in dir (any order; callers sort).
	ReadDir(dir string) ([]string, error)
	// Remove deletes a truncated-away segment.
	Remove(name string) error
	// SyncDir makes directory mutations (segment create/remove)
	// durable. Best-effort: filesystems that cannot fsync a directory
	// return nil.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) OpenAppend(name string, size int64) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		// Directory fsync is not universally supported; durability of
		// the entries then rides on the filesystem's own ordering.
		return nil
	}
	return cerr
}

// segmentName renders the canonical file name for a segment starting at
// base.
func segmentName(base LSN) string { return fmt.Sprintf("wal-%016x.seg", uint64(base)) }

// parseSegmentName extracts the base LSN from a segment file name,
// reporting ok=false for foreign files (which the scanner ignores).
func parseSegmentName(name string) (LSN, bool) {
	if len(name) != 4+16+4 || name[:4] != "wal-" || name[len(name)-4:] != ".seg" {
		return 0, false
	}
	var base LSN
	for _, c := range name[4 : 4+16] {
		var d LSN
		switch {
		case c >= '0' && c <= '9':
			d = LSN(c - '0')
		case c >= 'a' && c <= 'f':
			d = LSN(c-'a') + 10
		default:
			return 0, false
		}
		base = base<<4 | d
	}
	return base, true
}

// listSegments returns dir's segments sorted by base LSN.
func listSegments(fs FS, dir string) ([]segmentRef, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := make([]segmentRef, 0, len(names))
	for _, n := range names {
		if base, ok := parseSegmentName(n); ok {
			segs = append(segs, segmentRef{base: base, path: filepath.Join(dir, n)})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// segmentRef is one on-disk segment.
type segmentRef struct {
	base LSN
	path string
}
