package main

import (
	"strings"
	"testing"
)

func TestParseStripsGOMAXPROCSAndReadsMetrics(t *testing.T) {
	out := `
goos: linux
BenchmarkDispatchThroughput/binary-coalesced-8   3000   18048 ns/op   55407 jobs/s
BenchmarkProtoCodec/task/json-8   30000   5130 ns/op   1064 B/op   26 allocs/op
not a bench line
`
	parsed, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d benchmarks", len(parsed))
	}
	m, ok := parsed["BenchmarkDispatchThroughput/binary-coalesced"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", parsed)
	}
	if m["jobs/s"] != 55407 || m["iterations"] != 3000 {
		t.Fatalf("metrics %v", m)
	}
	if parsed["BenchmarkProtoCodec/task/json"]["allocs/op"] != 26 {
		t.Fatalf("metrics %v", parsed)
	}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	old := map[string]result{
		"BenchmarkDispatchThroughput/binary-coalesced": {"jobs/s": 55407},
		"BenchmarkProtoCodec/task/json":                {"ns/op": 5130}, // filtered out by match
	}
	cur := map[string]result{
		"BenchmarkDispatchThroughput/binary-coalesced": {"jobs/s": 50000}, // -9.8%
	}
	report, regressed := diff(old, cur, "BenchmarkDispatchThroughput", "jobs/s", 0.20)
	if regressed {
		t.Fatalf("9.8%% drop flagged at 20%% threshold:\n%s", report)
	}
	if !strings.Contains(report, "ok") || strings.Contains(report, "ProtoCodec") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestDiffFailsBeyondThreshold(t *testing.T) {
	old := map[string]result{
		"BenchmarkDispatchThroughput/shards=4": {"jobs/s": 60000},
	}
	cur := map[string]result{
		"BenchmarkDispatchThroughput/shards=4": {"jobs/s": 40000}, // -33%
	}
	report, regressed := diff(old, cur, "BenchmarkDispatchThroughput", "jobs/s", 0.20)
	if !regressed {
		t.Fatalf("33%% drop not flagged:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestDiffFailsOnVanishedBenchmark(t *testing.T) {
	old := map[string]result{
		"BenchmarkDispatchThroughput/shards=1": {"jobs/s": 38839},
	}
	report, regressed := diff(old, map[string]result{}, "BenchmarkDispatchThroughput", "jobs/s", 0.20)
	if !regressed || !strings.Contains(report, "MISSING") {
		t.Fatalf("vanished benchmark not flagged:\n%s", report)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	old := map[string]result{
		"BenchmarkDispatchThroughput/shards=4": {"jobs/s": 55000},
	}
	cur := map[string]result{
		"BenchmarkDispatchThroughput/shards=4": {"jobs/s": 70000},
	}
	if report, regressed := diff(old, cur, "BenchmarkDispatchThroughput", "jobs/s", 0.20); regressed {
		t.Fatalf("improvement flagged as regression:\n%s", report)
	}
}

func TestRenderDeterministic(t *testing.T) {
	parsed := map[string]result{
		"BenchmarkB": {"ns/op": 2},
		"BenchmarkA": {"ns/op": 1},
	}
	a, err := render(parsed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := render(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("render not deterministic")
	}
	if strings.Index(string(a), "BenchmarkA") > strings.Index(string(a), "BenchmarkB") {
		t.Fatalf("names not sorted:\n%s", a)
	}
}
