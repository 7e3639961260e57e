package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {300000, 99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && float64(c.n)*(100-got)/100 < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d", got)
	}
}

func TestSummarizeLatencyFallsBackOnFewSamples(t *testing.T) {
	ns := make([]int64, 200)
	for i := range ns {
		ns[i] = int64(200-i) * 1e6 // unsorted input: 200ms down to 1ms
	}
	got := summarizeLatency(ns)
	if got.TailPct != 95 || got.Samples != 200 || got.P50ms != 100 || got.TailMs != 190 {
		t.Errorf("summarizeLatency = %+v", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if s := spread([]float64{90, 100, 110}); s != 0.2 {
		t.Errorf("spread = %v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if s := spread([]float64{16, 1, 8, 2, 4}); s != (12-1.5)/4 {
		t.Errorf("spread of five = %v", s)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread of ten = %v", s)
	}
	if s := spread(nil); s != 0 {
		t.Errorf("spread(nil) = %v", s)
	}
}
