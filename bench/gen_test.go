package main

import (
	"reflect"
	"strings"
	"testing"

	"jets/internal/core"
	"jets/internal/swiftlang"
)

func TestSameSeedSameInputs(t *testing.T) {
	sz := sizesFor(15, false)
	gen := func(seed int64) []any {
		return []any{
			jobIDs(seed, 1000),
			gangSizes(seed, 1000),
			pilotJobFile(seed, sz.PilotSeq, sz.PilotMPI, "/x/barrier"),
			swiftScript(seed, sz.SwiftN),
		}
	}
	a, b, other := gen(7), gen(7), gen(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from the same seed", i)
		}
		if reflect.DeepEqual(a[i], other[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestGeneratedInputsParse(t *testing.T) {
	sz := sizesFor(15, false)
	jobs, err := core.ParseInput(strings.NewReader(pilotJobFile(3, sz.PilotSeq, sz.PilotMPI, "/x/barrier")))
	if err != nil {
		t.Fatal(err)
	}
	mpi := 0
	for _, j := range jobs {
		if j.Spec.NProcs == 2 {
			mpi++
		}
	}
	if len(jobs) != sz.PilotSeq+sz.PilotMPI || mpi != sz.PilotMPI {
		t.Errorf("job file has %d jobs, %d MPI; want %d, %d", len(jobs), mpi, sz.PilotSeq+sz.PilotMPI, sz.PilotMPI)
	}
	if _, err := swiftlang.Parse(swiftScript(3, sz.SwiftN)); err != nil {
		t.Errorf("generated script does not parse: %v", err)
	}
	ids := map[string]bool{}
	for _, id := range jobIDs(3, 5000) {
		if ids[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		ids[id] = true
	}
	for _, g := range gangSizes(3, 500) {
		if g != 2 && g != 4 && g != 8 {
			t.Fatalf("gang size %d", g)
		}
	}
}

func TestSizesScaleWithSeconds(t *testing.T) {
	a, b := sizesFor(15, false), sizesFor(30, false)
	if b.SeqMem != 2*a.SeqMem || a.SeqDurable%durableChunk != 0 || a.scaled(5).SeqDurable%durableChunk != 0 {
		t.Errorf("sizes: %+v %+v", a, b)
	}
}
