// Package crashtest is the fault-injection harness behind the WAL's
// crash-consistency guarantee. It supplies an in-memory wal.FS that
// journals every byte written and every fsync, and can then materialize
// the exact disk image a power cut at any global byte offset would
// leave behind: fully persisted ops before the cut, a torn prefix of
// the op the cut lands in, nothing after. Because the log is
// append-only and segments are written strictly in sequence, the
// in-order prefix model covers every power-cut shape the format must
// survive — a cut at a record boundary, a partial length prefix, a
// partial CRC, a partial payload, or a half-written segment header.
// Writes land at the file offset, and the log grows its active segment
// ahead of its records, which the journal holds as a zero extension
// carrying no written bytes; so images also end in unwritten space
// after the last record, whole or torn.
// Tests take images at every interesting offset (optionally flipping
// bits to model media corruption), replay them through wal.Replay, and
// compare the reconstructed π against an oracle over the durable
// prefix.
package crashtest

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"afforest/internal/wal"
)

type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opTruncate
	opRemove
	opSync
)

type op struct {
	kind opKind
	file string
	data []byte // opWrite: the bytes (owned copy)
	off  int64  // opWrite: the file offset they land at
	size int64  // opTruncate: the new length (a cut, or a zero extension)
}

// Disk is an in-memory wal.FS that records a write journal. It is safe
// for concurrent use, though the WAL writes from one goroutine.
type Disk struct {
	mu      sync.Mutex
	files   map[string][]byte
	journal []op
	written int64 // cumulative opWrite payload bytes
}

// NewDisk returns an empty journaling disk.
func NewDisk() *Disk { return &Disk{files: map[string][]byte{}} }

// FromImage returns a disk seeded with a crash image. The seed is not
// journaled: WriteBytes starts at zero, as if the machine had just
// rebooted with these files on disk.
func FromImage(files map[string][]byte) *Disk {
	d := NewDisk()
	for name, b := range files {
		d.files[name] = append([]byte(nil), b...)
	}
	return d
}

// WriteBytes returns the cumulative bytes written so far — the space of
// valid crash cut offsets is [0, WriteBytes()].
func (d *Disk) WriteBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.written
}

// Image materializes the disk state after a power cut at global write
// offset cut: every journaled op whose bytes fall entirely below cut is
// applied, the op straddling cut is applied as a torn prefix, and
// everything after is lost. Metadata ops (create, remove, truncate,
// sync) carry no bytes and apply up to the torn write; a truncate past
// a file's end extends it with zeros.
func (d *Disk) Image(cut int64) map[string][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := map[string][]byte{}
	remaining := cut
	for _, o := range d.journal {
		switch o.kind {
		case opCreate:
			img[o.file] = nil
		case opRemove:
			delete(img, o.file)
		case opTruncate:
			if b, ok := img[o.file]; ok {
				img[o.file] = resize(b, o.size)
			}
		case opSync:
			// durability barrier; no bytes
		case opWrite:
			m := min(int64(len(o.data)), remaining)
			img[o.file] = writeAt(img[o.file], o.off, o.data[:m])
			remaining -= m
			if m < int64(len(o.data)) {
				out := make(map[string][]byte, len(img))
				for k, v := range img {
					out[k] = append([]byte(nil), v...)
				}
				return out
			}
		}
	}
	out := make(map[string][]byte, len(img))
	for k, v := range img {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// resize cuts b to size or extends it with zeros.
func resize(b []byte, size int64) []byte {
	if int64(len(b)) >= size {
		return b[:size]
	}
	return append(b, make([]byte, size-int64(len(b)))...)
}

// writeAt copies p into b at off, extending b as far as p reaches.
func writeAt(b []byte, off int64, p []byte) []byte {
	b = resize(b, max(int64(len(b)), off+int64(len(p))))
	copy(b[off:], p)
	return b
}

// --- wal.FS ---

func (d *Disk) MkdirAll(string) error { return nil }

func (d *Disk) Create(name string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files[name] = nil
	d.journal = append(d.journal, op{kind: opCreate, file: name})
	return &memFile{d: d, name: name}, nil
}

func (d *Disk) OpenAppend(name string, size int64) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("crashtest: %s does not exist", name)
	}
	if int64(len(b)) < size {
		return nil, fmt.Errorf("crashtest: truncating %s to %d, only %d bytes", name, size, len(b))
	}
	d.files[name] = b[:size:size]
	d.journal = append(d.journal, op{kind: opTruncate, file: name, size: size})
	return &memFile{d: d, name: name, off: size}, nil
}

func (d *Disk) Open(name string) (io.ReadCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("crashtest: %s does not exist", name)
	}
	return io.NopCloser(strings.NewReader(string(b))), nil
}

func (d *Disk) ReadDir(dir string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], "/") {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("crashtest: %s does not exist", name)
	}
	delete(d.files, name)
	d.journal = append(d.journal, op{kind: opRemove, file: name})
	return nil
}

func (d *Disk) SyncDir(string) error { return nil }

// memFile writes to its disk entry at its offset, journaling every
// write, resize and sync.
type memFile struct {
	d    *Disk
	name string
	off  int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	cp := append([]byte(nil), p...)
	f.d.files[f.name] = writeAt(f.d.files[f.name], f.off, cp)
	f.d.journal = append(f.d.journal, op{kind: opWrite, file: f.name, data: cp, off: f.off})
	f.d.written += int64(len(cp))
	f.off += int64(len(cp))
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	f.d.files[f.name] = resize(f.d.files[f.name], size)
	f.d.journal = append(f.d.journal, op{kind: opTruncate, file: f.name, size: size})
	return nil
}

func (f *memFile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	f.d.journal = append(f.d.journal, op{kind: opSync, file: f.name})
	return nil
}

func (f *memFile) Close() error { return nil }
