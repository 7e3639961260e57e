package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_job", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	mv := func(rounds ...float64) metricValue { return metricValue{Median: median(rounds), Rounds: rounds} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want verdict
	}{
		{"same", lower, mv(100, 101, 99), mv(100, 102, 99), vOK},
		{"lower-is-better got 20% bigger", lower, mv(100, 101, 99), mv(120, 121, 119), vWorse},
		{"lower-is-better got 20% smaller", lower, mv(100, 101, 99), mv(80, 81, 79), vOK},
		{"higher-is-better dropped 20%", higher, mv(100, 101, 99), mv(80, 81, 79), vWorse},
		{"higher-is-better rose 20%", higher, mv(100, 101, 99), mv(120, 121, 119), vOK},
		{"inside the bound", higher, mv(100, 101, 99), mv(93, 94, 92), vOK},
		{"spread wider than the bound hides the change", lower, mv(100, 101, 99), mv(120, 140, 110), vUnresolved},
		{"spread on the base side too", lower, mv(100, 120, 90), mv(100, 101, 99), vUnresolved},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if d, _ := judge(higher, mv(100), mv(80)); d < 0.199 || d > 0.201 {
		t.Errorf("delta is the share by which b is worse: got %v, want 0.2", d)
	}
}

func TestCompareResultsExitAndFailedFrac(t *testing.T) {
	cat := &catalog{EndToEnd: []metricDef{{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.1}}}
	cat.Workloads = append(cat.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "seq-mem"})
	file := func(jobs float64, failedFrac float64) *resultsFile {
		return &resultsFile{Workloads: map[string]*runResult{"seq-mem": {
			FailedFrac: failedFrac,
			Metrics:    map[string]metricValue{"jobs_per_s": {Median: jobs, Rounds: []float64{jobs, jobs * 1.01, jobs * 0.99}}},
		}}}
	}
	var out bytes.Buffer
	if compareResults(&out, cat, file(1000, 0), file(990, 0)) {
		t.Errorf("1%% slower reported as worse:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, cat, file(1000, 0), file(800, 0)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("20%% slower not reported as worse:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, cat, file(1000, 0), file(1000, 0.01)) {
		t.Errorf("new failures not reported as worse:\n%s", out.String())
	}
}
