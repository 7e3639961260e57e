// Package metrics implements the measurement primitives used throughout the
// JETS evaluation: the allocation-utilization formula of Eq. (1) in the
// paper, load-level time series computed from job start/stop records, and
// fixed-width histograms such as the NAMD wall-time distribution (Fig. 11).
//
// All times are expressed as time.Duration offsets from an arbitrary epoch
// so the package works identically for wall-clock runs and for the
// discrete-event simulator's virtual clock.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Utilization computes Eq. (1) of the paper:
//
//	utilization = duration × jobs × n / (allocation size × time)
//
// where duration is the useful per-job run time, jobs is the number of jobs
// completed, n is the number of processors per job, allocation is the number
// of processors in the allocation, and total is the wall time the allocation
// was held. The result is clamped to [0, 1]; a zero allocation or total
// yields 0.
func Utilization(duration time.Duration, jobs, n, allocation int, total time.Duration) float64 {
	if allocation <= 0 || total <= 0 {
		return 0
	}
	u := duration.Seconds() * float64(jobs) * float64(n) / (float64(allocation) * total.Seconds())
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// WeightedUtilization computes utilization for a batch of jobs with varying
// durations and sizes: the sum of busy processor-seconds divided by the
// processor-seconds held by the allocation.
func WeightedUtilization(jobs []JobRecord, allocation int, total time.Duration) float64 {
	var busy float64
	for _, j := range jobs {
		busy += j.busy()
	}
	return busyFraction(busy, allocation, total)
}

// busyFraction is busy processor-seconds over the processor-seconds an
// allocation was held, clamped to [0, 1]; a zero allocation or total yields 0.
func busyFraction(busy float64, allocation int, total time.Duration) float64 {
	if allocation <= 0 || total <= 0 {
		return 0
	}
	u := busy / (float64(allocation) * total.Seconds())
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// JobRecord is one job execution interval on some number of processors.
type JobRecord struct {
	ID    string
	Procs int
	Start time.Duration // offset from epoch
	Stop  time.Duration // offset from epoch; Stop >= Start
}

// Duration returns the job's run time. A record with Stop < Start reports 0.
func (j JobRecord) Duration() time.Duration {
	if j.Stop < j.Start {
		return 0
	}
	return j.Stop - j.Start
}

// busy is the processor-seconds the job kept busy.
func (j JobRecord) busy() float64 { return j.Duration().Seconds() * float64(j.Procs) }

// Series is a step function sampled at event boundaries, e.g. "busy cores at
// time t" (Fig. 13) or "nodes available" (Fig. 10).
type Series struct {
	T []time.Duration
	V []float64
}

// Len reports the number of points in the series.
func (s *Series) Len() int { return len(s.T) }

// At returns the series value at offset t using step semantics: the value of
// the latest point at or before t, or 0 before the first point.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t })
	if i == 0 {
		return 0
	}
	return s.V[i-1]
}

// Max returns the maximum value in the series, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.V {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the time-weighted mean value of the series over [first, end].
// end must be at or after the last point; typically it is the allocation end
// time. An empty series reports 0.
func (s *Series) Mean(end time.Duration) float64 {
	if len(s.T) == 0 {
		return 0
	}
	var area float64
	for i := 0; i < len(s.T); i++ {
		t0 := s.T[i]
		t1 := end
		if i+1 < len(s.T) {
			t1 = s.T[i+1]
		}
		if t1 < t0 {
			t1 = t0
		}
		area += s.V[i] * (t1 - t0).Seconds()
	}
	span := (end - s.T[0]).Seconds()
	if span <= 0 {
		return 0
	}
	return area / span
}

// LoadLevel converts job records into a "busy processors over time" step
// series: at each start event the level rises by the job's processor count,
// at each stop it falls. This reproduces the Fig. 13 load-level plot.
func LoadLevel(jobs []JobRecord) *Series {
	type edge struct {
		t     time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(jobs))
	for _, j := range jobs {
		edges = append(edges, edge{j.Start, j.Procs}, edge{j.Stop, -j.Procs})
	}
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].t != edges[k].t {
			return edges[i].t < edges[k].t
		}
		// Process stops before starts at the same instant so the peak is not
		// overstated.
		return edges[i].delta < edges[k].delta
	})
	s := &Series{}
	level := 0
	for i := 0; i < len(edges); {
		t := edges[i].t
		for i < len(edges) && edges[i].t == t {
			level += edges[i].delta
			i++
		}
		s.T = append(s.T, t)
		s.V = append(s.V, float64(level))
	}
	return s
}

// Histogram is a fixed-width bucket histogram over float64 samples.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	N      int
	sum    float64
	sumsq  float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram with nbuckets equal-width buckets over
// [lo, hi). It panics if nbuckets <= 0 or hi <= lo, which indicate
// programming errors rather than data errors.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if nbuckets <= 0 {
		panic("metrics: NewHistogram nbuckets must be positive")
	}
	if hi <= lo {
		panic("metrics: NewHistogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbuckets),
		min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.N++
	h.sum += x
	h.sumsq += x * x
	if x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		w := (h.Hi - h.Lo) / float64(len(h.Counts))
		i := int((x - h.Lo) / w)
		if i >= len(h.Counts) { // guard float rounding at the upper edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.sum / float64(h.N)
}

// Stddev returns the population standard deviation, or 0 with <2 samples.
func (h *Histogram) Stddev() float64 {
	if h.N < 2 {
		return 0
	}
	m := h.Mean()
	v := h.sumsq/float64(h.N) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.N == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.N == 0 {
		return 0
	}
	return h.max
}

// BucketLo returns the lower edge of bucket i.
func (h *Histogram) BucketLo(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*w
}

// String renders the histogram as rows of "lo..hi count", one per bucket,
// suitable for the jets-bench text harness.
func (h *Histogram) String() string {
	var b strings.Builder
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		fmt.Fprintf(&b, "%8.1f..%-8.1f %d\n", h.BucketLo(i), h.BucketLo(i)+w, c)
	}
	return b.String()
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sample slice. The input
// is not modified. Empty input reports 0.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Summary aggregates job records into the figures the harness prints.
type Summary struct {
	Jobs        int
	Procs       int // total busy proc count summed over jobs
	MeanRun     time.Duration
	Makespan    time.Duration
	Utilization float64
	Rate        float64 // jobs per second over the makespan
}

// Tally folds job records into the six sums a Summary is computed from, so a
// campaign of any length keeps these numbers instead of one record per job.
type Tally struct {
	Jobs  int
	Procs int           // processors summed over jobs
	Run   time.Duration // run time summed over jobs
	Busy  float64       // processor-seconds kept busy, summed over jobs
	First time.Duration // earliest start
	Last  time.Duration // latest stop
}

// Add folds one record in.
func (t *Tally) Add(j JobRecord) {
	if t.Jobs == 0 || j.Start < t.First {
		t.First = j.Start
	}
	if t.Jobs == 0 || j.Stop > t.Last {
		t.Last = j.Stop
	}
	t.Jobs++
	t.Procs += j.Procs
	t.Run += j.Duration()
	t.Busy += j.busy()
}

// Merge folds another tally in, for runs spread over several dispatchers.
func (t *Tally) Merge(o Tally) {
	if o.Jobs == 0 {
		return
	}
	if t.Jobs == 0 || o.First < t.First {
		t.First = o.First
	}
	if t.Jobs == 0 || o.Last > t.Last {
		t.Last = o.Last
	}
	t.Jobs += o.Jobs
	t.Procs += o.Procs
	t.Run += o.Run
	t.Busy += o.Busy
}

// Summary computes the figures for a run on an allocation of the given
// processor count. Makespan is measured from the earliest start to the latest
// stop.
func (t Tally) Summary(allocation int) Summary {
	var s Summary
	if t.Jobs == 0 {
		return s
	}
	s.Jobs, s.Procs = t.Jobs, t.Procs
	s.MeanRun = t.Run / time.Duration(t.Jobs)
	s.Makespan = t.Last - t.First
	s.Utilization = busyFraction(t.Busy, allocation, s.Makespan)
	if s.Makespan > 0 {
		s.Rate = float64(s.Jobs) / s.Makespan.Seconds()
	}
	return s
}

// Summarize computes a Summary from the records of a batch run.
func Summarize(jobs []JobRecord, allocation int) Summary {
	var t Tally
	for _, j := range jobs {
		t.Add(j)
	}
	return t.Summary(allocation)
}
