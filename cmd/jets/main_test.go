package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestOutputDirConcurrentChunks writes numbered chunks for many tasks from
// eight goroutines at once, as eight worker links' readers call the sink.
// Each goroutine interleaves the chunks of its own tasks, the way a
// multi-core worker's link carries them. Every file must hold exactly its
// task's chunks, in the order they were written, and the first chunk must
// truncate a file an earlier run left behind. Under -race it also checks
// that the sink's own state is locked.
func TestOutputDirConcurrentChunks(t *testing.T) {
	const links, tasks, chunks = 8, 50, 20
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "l0t0_seq.out"), []byte("stale output\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := newOutputDir(dir)
	var wg sync.WaitGroup
	for l := 0; l < links; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				for k := 0; k < tasks; k++ {
					o.Write(fmt.Sprintf("l%dt%d/seq", l, k), "stdout", []byte(fmt.Sprintf("chunk %d\n", c)))
				}
			}
		}(l)
	}
	wg.Wait()
	var want strings.Builder
	for c := 0; c < chunks; c++ {
		fmt.Fprintf(&want, "chunk %d\n", c)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != links*tasks {
		t.Fatalf("%d output files, want %d", len(files), links*tasks)
	}
	for l := 0; l < links; l++ {
		for k := 0; k < tasks; k++ {
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("l%dt%d_seq.out", l, k)))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want.String() {
				t.Fatalf("task l%dt%d: file holds\n%q\nwant\n%q", l, k, got, want.String())
			}
		}
	}
}
