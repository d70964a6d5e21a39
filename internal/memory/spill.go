package memory

// Spill runs: temp files of encoded batches. Every run lives in the owning
// Allocator's per-query spill directory, which Allocator.Close removes
// wholesale — the teardown path queries take on error or cancellation — so
// a run leaking past its operator can never leak past the query.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"calcite/internal/schema"
)

// spillBufSize is the buffered-I/O window of run writers and readers.
const spillBufSize = 64 << 10

// spillDir returns the allocator's spill directory, creating it lazily.
func (a *Allocator) spillDir() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return "", fmt.Errorf("memory: allocator closed")
	}
	if a.dir == "" {
		dir, err := os.MkdirTemp("", "calcite-spill-")
		if err != nil {
			return "", fmt.Errorf("memory: creating spill directory: %w", err)
		}
		a.dir = dir
	}
	return a.dir, nil
}

// SpillDir exposes the query's spill directory for tests ("" until the
// first run is created).
func (a *Allocator) SpillDir() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dir
}

func removeSpillDir(dir string) error {
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// NewRun opens a spill run for writing on behalf of operator op.
func (a *Allocator) NewRun(op string) (*RunWriter, error) {
	if a == nil {
		return nil, fmt.Errorf("memory: no allocator; spilling requires a memory budget")
	}
	dir, err := a.spillDir()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.nfiles++
	seq := a.nfiles
	a.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("run-%04d.spill", seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("memory: creating spill file: %w", err)
	}
	return &RunWriter{a: a, op: op, f: f, w: bufio.NewWriterSize(f, spillBufSize)}, nil
}

// RunWriter streams batches into one spill file.
type RunWriter struct {
	a    *Allocator
	op   string
	f    *os.File
	w    *bufio.Writer
	rows int64
}

// WriteBatch appends a batch (compacted — selection applied) to the run.
func (w *RunWriter) WriteBatch(b *schema.Batch) error {
	w.rows += int64(b.NumRows())
	return EncodeBatch(w.w, b)
}

// Rows returns the number of rows written so far.
func (w *RunWriter) Rows() int64 { return w.rows }

// Finish flushes the run and returns its readable handle. The written byte
// count is recorded against the operator's spill counters.
func (w *RunWriter) Finish() (*Run, error) {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return nil, err
	}
	size, err := w.f.Seek(0, 1)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	w.a.noteSpill(w.op, size, 1, 0)
	return &Run{path: w.f.Name(), rows: w.rows, bytes: size}, nil
}

// Abandon discards a partially written run.
func (w *RunWriter) Abandon() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// Run is a finished spill file, ready to be re-read.
type Run struct {
	path  string
	rows  int64
	bytes int64
}

// Rows returns the number of rows in the run.
func (r *Run) Rows() int64 { return r.rows }

// Bytes returns the on-disk size of the run.
func (r *Run) Bytes() int64 { return r.bytes }

// Open returns a batch cursor over the run's contents.
func (r *Run) Open() (*RunReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("memory: reopening spill file: %w", err)
	}
	return &RunReader{f: f, r: bufio.NewReaderSize(f, spillBufSize)}, nil
}

// Remove deletes the run's file. Runs are also removed wholesale when the
// allocator closes; eager removal just returns disk earlier.
func (r *Run) Remove() error { return os.Remove(r.path) }

// RunReader iterates the batches of a spill run (a schema.BatchCursor).
type RunReader struct {
	f *os.File
	r *bufio.Reader
}

// NextBatch returns the next spilled batch, or schema.Done at end of run.
func (rr *RunReader) NextBatch() (*schema.Batch, error) {
	return DecodeBatch(rr.r)
}

// Close closes the underlying file (the file itself stays for re-reads
// until Remove or allocator close).
func (rr *RunReader) Close() error { return rr.f.Close() }
