package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBytes writes data at path through WriteAtomic.
func writeBytes(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func TestWriteAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.bin")
	want := []byte("hello atomic world")
	if err := writeBytes(path, want); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("content mismatch: got %q want %q", got, want)
	}
	// Overwrite replaces wholesale.
	if err := writeBytes(path, []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "v2" {
		t.Fatalf("after overwrite: got %q want %q", got, "v2")
	}
}

// TestWriteAtomicCrashSimulation simulates a crash mid-write: the write
// callback emits a partial payload then fails. The previous target
// content must survive intact and no temp files may be left behind.
func TestWriteAtomicCrashSimulation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	prev := []byte("previous good state")
	if err := writeBytes(path, prev); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	boom := errors.New("simulated crash")
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("partial gar")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected simulated crash error, got %v", err)
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("target unreadable after failed write: %v", rerr)
	}
	if string(got) != string(prev) {
		t.Fatalf("target corrupted by failed write: got %q want %q", got, prev)
	}

	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatalf("ReadDir: %v", derr)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stale temp file left behind: %s", e.Name())
		}
	}
}

func TestWriteAtomicNoTargetOnFirstFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.bin")
	boom := errors.New("fail")
	err := WriteAtomic(path, func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("target should not exist after failed first write, stat err=%v", serr)
	}
}
