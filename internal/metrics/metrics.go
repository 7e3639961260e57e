// Package metrics implements the measurement primitives used throughout the
// JETS evaluation: the allocation-utilization formula of Eq. (1) in the
// paper, load-level time series computed from job start/stop records, and
// the running sums a batch report is computed from.
//
// All times are expressed as time.Duration offsets from an arbitrary epoch
// so the package works identically for wall-clock runs and for the
// discrete-event simulator's virtual clock.
package metrics

import (
	"sort"
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
