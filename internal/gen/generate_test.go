package gen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"afforest/internal/graph"
)

func TestLoadOrGenerateGenerators(t *testing.T) {
	for _, name := range Generators() {
		g, err := LoadOrGenerate("", name, 500, 9, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
}

func TestLoadOrGenerateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	g := URandDegree(300, 6, 1)
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadOrGenerate(path, "", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() {
		t.Fatal("loaded graph differs")
	}
}

func TestLoadOrGenerateErrors(t *testing.T) {
	if _, err := LoadOrGenerate("x.el", "urand", 10, 9, 4, 1); err == nil {
		t.Fatal("-in with -gen accepted")
	}
	if _, err := LoadOrGenerate("", "", 10, 9, 4, 1); !errors.Is(err, ErrNoSource) {
		t.Fatalf("neither -in nor -gen: err = %v, want ErrNoSource", err)
	}
	if _, err := LoadOrGenerate("", "bogus", 10, 9, 4, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := LoadOrGenerate("/nonexistent/file.csr", "", 0, 0, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadOrGenerateTruncatedFile: corrupt or truncated inputs must
// surface as clean errors. The historical failure was a truncated .csr
// whose header claimed huge (but sub-cap) array sizes: the reader
// allocated terabytes upfront and the process died with
// `fatal error: runtime: out of memory` and a stack trace instead of
// the one-line error the CLIs print for every other bad input.
func TestLoadOrGenerateTruncatedFile(t *testing.T) {
	dir := t.TempDir()

	write := func(name string, blob []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var hugeHeader bytes.Buffer
	hugeHeader.WriteString("AFCSR\x01")
	binary.Write(&hugeHeader, binary.LittleEndian, [2]uint64{1 << 38, 1 << 38})

	var midTruncated bytes.Buffer
	midTruncated.WriteString("AFCSR\x01")
	binary.Write(&midTruncated, binary.LittleEndian, [2]uint64{100, 200})
	midTruncated.Write(make([]byte, 32)) // a fragment of the offsets array

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"empty.csr", nil},
		{"magic-only.csr", []byte("AFCSR\x01")},
		{"bad-magic.csr", make([]byte, 64)},
		{"huge-header.csr", hugeHeader.Bytes()},
		{"mid-truncated.csr", midTruncated.Bytes()},
	} {
		path := write(tc.name, tc.blob)
		if _, err := LoadOrGenerate(path, "", 0, 0, 0, 0); err == nil {
			t.Errorf("%s: truncated/corrupt file accepted", tc.name)
		}
	}
}
