package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json. That file is the only list of
// metric names, units, directions and bounds; the harness fills in values.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog(root string) (*catalog, error) {
	b, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// envInfo records where a results file was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func recordEnv(root string) envInfo {
	commit := "unknown" // a driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// metricValue is a metric of one run: the median round and every round. For
// a time-based metric of an untraced run both are at the reference machine
// speed (see speed.go) and RawMedian is the median as measured.
type metricValue struct {
	Median    float64   `json:"median"`
	Unit      string    `json:"unit"`
	Rounds    []float64 `json:"rounds"`
	RawMedian float64   `json:"raw_median,omitempty"`
}

// atReferenceSpeed converts a measured value to the reference machine speed:
// on a box running at index 0.8 a rate is divided by 0.8 and a duration
// multiplied by it. Units that are neither are left alone.
func atReferenceSpeed(v float64, unit string, index float64) float64 {
	switch {
	case strings.HasSuffix(unit, "/s"):
		return v / index
	case unit == "s" || unit == "ms" || unit == "us" || unit == "ns":
		return v * index
	}
	return v
}

// roundInfo is the per-round environment record.
type roundInfo struct {
	Loadavg1 float64 `json:"loadavg_1min_before"`
	// Flagged marks a round started above loadavg 1.5; it is kept, not
	// dropped, so the reader can judge it.
	Flagged bool `json:"flagged_busy"`
	// Speed is the timing of the reference kernels just before the round.
	Speed speedSample `json:"machine_speed_before"`
}

// runResult is one run (3 rounds) of one workload.
type runResult struct {
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Metrics    map[string]metricValue `json:"metrics"`
	Rounds     []roundInfo            `json:"rounds"`
	// SpeedIndex is the run's machine-speed index: the geometric mean of the
	// samples before each round and one after the last.
	SpeedIndex float64     `json:"machine_speed_index"`
	SpeedAfter speedSample `json:"machine_speed_after"`
	// LatencySamples per round and the percentile job_latency_p99_ms really
	// is at that sample count (99 unless a round has under 1000 jobs).
	LatencySamples int      `json:"latency_samples_per_round,omitempty"`
	TailPct        float64  `json:"latency_tail_percentile,omitempty"`
	Problems       []string `json:"problems,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env       envInfo               `json:"env"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Workloads map[string]*runResult `json:"workloads"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printRun lists every metric of a run by name with its unit.
func printRun(w io.Writer, name string, r *runResult) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d failed_frac=%g machine_speed_index=%.3f\n",
		name, r.Correct, r.Attempted, r.Failed, r.FailedFrac, r.SpeedIndex)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %-8s", n, v.Median, v.Unit)
		if v.RawMedian != 0 && v.RawMedian != v.Median {
			fmt.Fprintf(w, " (as measured %.4f)", v.RawMedian)
		}
		fmt.Fprintf(w, " rounds %.4g\n", v.Rounds)
	}
	for i, ri := range r.Rounds {
		if ri.Flagged {
			fmt.Fprintf(w, "  round %d started on a busy box (loadavg %.2f)\n", i, ri.Loadavg1)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// ---------------------------------------------------------------------------
// -compare

type verdict string

const (
	vOK         verdict = "ok"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
)

// judge compares one metric of two runs. delta is how much b is worse than
// a as a share of a's median (negative: better). When the rounds of either
// side scatter (see spread) wider than the bound, the runs cannot resolve a
// change of that size: unresolved, not ok.
func judge(def metricDef, a, b metricValue) (delta float64, v verdict) {
	if a.Median != 0 {
		delta = (b.Median - a.Median) / a.Median
		if def.Better == "higher" {
			delta = -delta
		}
	}
	switch {
	case max(spread(a.Rounds), spread(b.Rounds)) > def.Bound:
		return delta, vUnresolved
	case delta > def.Bound:
		return delta, vWorse
	}
	return delta, vOK
}

// compareResults prints one row per workload x end-to-end metric and reports
// whether any is worse.
func compareResults(w io.Writer, cat *catalog, a, b *resultsFile) (worse bool) {
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, wl := range cat.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-13s missing from one side\n", wl.Name)
			continue
		}
		for _, def := range cat.EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			delta, v := judge(def, ma, mb)
			worse = worse || v == vWorse
			fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, def.Name, ma.Median, mb.Median, 100*delta, 100*def.Bound, v)
		}
		// failed_frac has no relative bound: more failures than before is
		// worse, whatever the count.
		v := vOK
		if rb.FailedFrac > ra.FailedFrac {
			v, worse = vWorse, true
		}
		fmt.Fprintf(w, "%-13s %-20s %14g %14g %8s %6s  %s\n", wl.Name, "failed_frac", ra.FailedFrac, rb.FailedFrac, "", "", v)
	}
	return worse
}
