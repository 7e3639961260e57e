package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The harness spawns itself for every round; under `go test` that is the
// test binary, so TestMain routes the child invocation.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmoke drives every workload end to end at a few hundred jobs, timed
// and traced: builds the tools, runs the rounds in child processes, applies
// the output checks. It measures nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	cat, err := loadCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", cat.EndToEnd}, {"1", cat.PerLayer}} {
		out := filepath.Join(t.TempDir(), "results.json")
		if err := run([]string{"-smoke", "-trace", mode.trace, "-seed", "5", "-out", out}); err != nil {
			t.Fatalf("-smoke -trace %s: %v", mode.trace, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res resultsFile
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		for _, w := range cat.Workloads {
			r := res.Workloads[w.Name]
			if r == nil || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("trace %s, %s: %+v", mode.trace, w.Name, r)
			}
			for _, d := range mode.defs {
				if _, ok := r.Metrics[d.Name]; !ok {
					t.Errorf("trace %s, %s: metric %s missing", mode.trace, w.Name, d.Name)
				}
			}
		}
		if mode.trace == "1" {
			if c := res.Workloads[wMPIGang].Metrics["pmi.wired_us"].Median; c <= 0 {
				t.Errorf("mpi-gang trace has no pmi.wired span")
			}
			if c := res.Workloads[wSeqMem].Metrics["journal.append_ns"].Median; c != 0 {
				t.Errorf("seq-mem trace has journal appends (%v ns)", c)
			}
			if c := res.Workloads[wSeqDurable].Metrics["journal.append_ns"].Median; c <= 0 {
				t.Errorf("seq-durable trace has no journal appends")
			}
		}
	}
}
