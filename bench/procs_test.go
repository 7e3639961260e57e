package main

import (
	"testing"
	"time"
)

func TestLatenciesFromCounters(t *testing.T) {
	ms := time.Millisecond
	// A burst of 4 jobs submitted by 10ms; completions arrive one per 10ms
	// from 20ms on.
	samples := []counterSample{
		{at: 0},
		{at: 10 * ms, submitted: 4, completed: 0},
		{at: 20 * ms, submitted: 4, completed: 1},
		{at: 40 * ms, submitted: 4, completed: 3},
		{at: 50 * ms, submitted: 4, completed: 4},
	}
	lat := latenciesFromCounters(samples, 4)
	// Submission k crossed at 2.5k ms; completion 1 at 20, 2 at 30, 3 at 40, 4 at 50.
	want := []time.Duration{17500 * time.Microsecond, 25 * ms, 32500 * time.Microsecond, 40 * ms}
	for i := range want {
		if time.Duration(lat[i]) != want[i] {
			t.Errorf("job %d latency = %v, want %v", i+1, time.Duration(lat[i]), want[i])
		}
	}
}

func TestCrossingWithOnlyEndpoints(t *testing.T) {
	// A tool too fast to be scraped: everything is attributed to its exit.
	samples := []counterSample{{at: 0}, {at: 8 * time.Millisecond, submitted: 2, completed: 2}}
	got := crossing(samples, 2, func(s counterSample) float64 { return s.completed })
	if got[0] != 4*time.Millisecond || got[1] != 8*time.Millisecond {
		t.Errorf("crossing = %v", got)
	}
}

func TestToolResultCountsFailures(t *testing.T) {
	out := toolOutcome{wall: time.Second, samples: []counterSample{{}}}
	if r := toolResult(out, 100, 100, 0); r.Failed != 0 || len(r.Problems) != 0 {
		t.Errorf("clean run: %+v", r)
	}
	if r := toolResult(out, 100, 98, 3); r.Failed != 5 || len(r.Problems) == 0 {
		t.Errorf("3 failed + 2 missing: failed=%d problems=%v", r.Failed, r.Problems)
	}
	if r := toolResult(out, 100, -1, 0); r.Failed != 100 {
		t.Errorf("no report line: failed=%d", r.Failed)
	}
	out.exitCode = 1
	if r := toolResult(out, 100, 100, 0); r.Failed == 0 || len(r.Problems) == 0 {
		t.Errorf("non-zero exit must count as failure: %+v", r)
	}
}
