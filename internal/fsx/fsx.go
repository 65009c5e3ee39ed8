// Package fsx provides small filesystem helpers shared across the
// pipeline: atomic write-then-rename used by checkpointing, the
// artifact cache, and bench output.
package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic writes a file at path such that readers either see the
// previous content or the complete new content, never a partial write.
// It creates a temporary file in the destination directory, streams the
// payload through write, fsyncs, and renames over the target. On any
// error the temporary file is removed and the previous target (if any)
// is left untouched. Parent directories are created as needed.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fsx: mkdir %s: %w", dir, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsx: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsx: sync %s: %w", path, err)
	}
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("fsx: chmod %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("fsx: close %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("fsx: rename %s: %w", path, err)
	}
	return nil
}
