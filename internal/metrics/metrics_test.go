package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestUtilizationEq1(t *testing.T) {
	// Eq (1): duration*jobs*n / (alloc*time).
	// 10s jobs, 20 jobs, 4 procs each, on 8 procs for 100s: 10*20*4/(8*100)=1.0
	u := Utilization(10*time.Second, 20, 4, 8, 100*time.Second)
	if u != 1.0 {
		t.Fatalf("got %v want 1.0", u)
	}
	u = Utilization(10*time.Second, 10, 4, 8, 100*time.Second)
	if math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("got %v want 0.5", u)
	}
}

func TestUtilizationClampsAndGuards(t *testing.T) {
	if u := Utilization(time.Second, 1000, 1000, 1, time.Second); u != 1 {
		t.Errorf("over-unity not clamped: %v", u)
	}
	if u := Utilization(time.Second, 1, 1, 0, time.Second); u != 0 {
		t.Errorf("zero allocation: %v", u)
	}
	if u := Utilization(time.Second, 1, 1, 1, 0); u != 0 {
		t.Errorf("zero total: %v", u)
	}
}

func TestJobRecordDuration(t *testing.T) {
	j := JobRecord{Start: 5 * time.Second, Stop: 3 * time.Second}
	if d := j.Duration(); d != 0 {
		t.Fatalf("inverted record should report 0, got %v", d)
	}
}

func TestLoadLevel(t *testing.T) {
	jobs := []JobRecord{
		{Procs: 4, Start: 0, Stop: 10 * time.Second},
		{Procs: 4, Start: 5 * time.Second, Stop: 15 * time.Second},
	}
	s := LoadLevel(jobs)
	if got := s.At(1 * time.Second); got != 4 {
		t.Errorf("t=1s: got %v want 4", got)
	}
	if got := s.At(7 * time.Second); got != 8 {
		t.Errorf("t=7s: got %v want 8", got)
	}
	if got := s.At(12 * time.Second); got != 4 {
		t.Errorf("t=12s: got %v want 4", got)
	}
	if got := s.At(20 * time.Second); got != 0 {
		t.Errorf("t=20s: got %v want 0", got)
	}
	if got := s.Max(); got != 8 {
		t.Errorf("max: got %v want 8", got)
	}
}

func TestLoadLevelStopBeforeStartAtSameInstant(t *testing.T) {
	jobs := []JobRecord{
		{Procs: 4, Start: 0, Stop: 10 * time.Second},
		{Procs: 4, Start: 10 * time.Second, Stop: 20 * time.Second},
	}
	s := LoadLevel(jobs)
	// At t=10s the stop is applied before the start, so the level never
	// exceeds 4.
	if got := s.Max(); got != 4 {
		t.Fatalf("max: got %v want 4", got)
	}
}

func TestSeriesAtBeforeFirst(t *testing.T) {
	s := &Series{T: []time.Duration{time.Second}, V: []float64{7}}
	if got := s.At(0); got != 0 {
		t.Fatalf("before first point: got %v want 0", got)
	}
}

func TestSeriesMean(t *testing.T) {
	s := &Series{
		T: []time.Duration{0, 10 * time.Second},
		V: []float64{4, 0},
	}
	// 4 for 10s then 0 for 10s => mean 2 over 20s
	if got := s.Mean(20 * time.Second); math.Abs(got-2) > 1e-12 {
		t.Fatalf("got %v want 2", got)
	}
}

func TestSeriesMeanEmpty(t *testing.T) {
	s := &Series{}
	if got := s.Mean(time.Second); got != 0 {
		t.Fatalf("got %v want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	jobs := []JobRecord{
		{Procs: 4, Start: 0, Stop: 10 * time.Second},
		{Procs: 4, Start: 2 * time.Second, Stop: 12 * time.Second},
	}
	s := summarize(jobs, 8)
	if s.Jobs != 2 || s.Procs != 8 {
		t.Errorf("jobs=%d procs=%d", s.Jobs, s.Procs)
	}
	if s.Makespan != 12*time.Second {
		t.Errorf("makespan=%v", s.Makespan)
	}
	if s.MeanRun != 10*time.Second {
		t.Errorf("meanrun=%v", s.MeanRun)
	}
	// busy = 80 proc-s over 8*12 = 96 proc-s
	if math.Abs(s.Utilization-80.0/96.0) > 1e-12 {
		t.Errorf("util=%v", s.Utilization)
	}
}

// summarize folds a batch's records into one tally and reports its Summary.
func summarize(jobs []JobRecord, allocation int) Summary {
	var t Tally
	for _, j := range jobs {
		t.Add(j)
	}
	return t.Summary(allocation)
}

// TestTallyMatchesSummarize: a tally does not depend on the order records
// arrive in (completions come back out of submission order), so folding them
// backwards gives the Summary that summarize, folding them forwards, gives.
func TestTallyMatchesSummarize(t *testing.T) {
	var jobs []JobRecord
	for i := 0; i < 100; i++ {
		start := time.Duration(i*37%50) * time.Millisecond
		jobs = append(jobs, JobRecord{Procs: 1 + i%4, Start: start, Stop: start + time.Duration(5+i%11)*time.Millisecond})
	}
	jobs = append(jobs, JobRecord{Procs: 2, Start: 9 * time.Millisecond, Stop: 3 * time.Millisecond}) // runs backwards: zero duration
	want := summarize(jobs, 16)
	var back Tally
	for i := len(jobs) - 1; i >= 0; i-- {
		back.Add(jobs[i])
	}
	got := back.Summary(16)
	if got.Jobs != want.Jobs || got.Procs != want.Procs || got.MeanRun != want.MeanRun ||
		got.Makespan != want.Makespan || got.Rate != want.Rate || math.Abs(got.Utilization-want.Utilization) > 1e-12 {
		t.Errorf("backwards summary %+v, forwards %+v", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil, 8)
	if s.Jobs != 0 || s.Utilization != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

// Property: utilization is always in [0,1] for arbitrary inputs.
func TestUtilizationRangeProperty(t *testing.T) {
	f := func(durMS uint16, jobs, n uint8, alloc uint8, totalMS uint16) bool {
		u := Utilization(time.Duration(durMS)*time.Millisecond, int(jobs), int(n),
			int(alloc), time.Duration(totalMS)*time.Millisecond)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LoadLevel never goes negative and ends at zero for well-formed
// records.
func TestLoadLevelProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var jobs []JobRecord
		for i := 0; i+2 < len(raw); i += 3 {
			start := time.Duration(raw[i]) * time.Millisecond
			dur := time.Duration(raw[i+1]%1000) * time.Millisecond
			procs := int(raw[i+2]%16) + 1
			jobs = append(jobs, JobRecord{Procs: procs, Start: start, Stop: start + dur})
		}
		s := LoadLevel(jobs)
		for _, v := range s.V {
			if v < 0 {
				return false
			}
		}
		if len(s.V) > 0 && s.V[len(s.V)-1] != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
