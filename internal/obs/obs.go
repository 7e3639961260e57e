// Package obs is the runtime observability layer: a lock-cheap registry of
// counters, gauges, and fixed-bucket latency histograms that live systems
// (the jets dispatcher, the pilot-job worker) export over HTTP in Prometheus
// text format, alongside expvar and pprof (http.go).
//
// The package complements internal/metrics, which computes the paper's
// post-hoc figures (Eq. 1 utilization, load-level series) from completed job
// records: obs answers "what is the dispatcher doing right now" — queue
// depth, idle workers per shard, dispatch latency distribution — the
// per-job lifecycle instrumentation that pilot-system characterizations
// (RADICAL-Pilot on Titan/Summit) use to find scheduler bottlenecks.
//
// Every instrument is safe for concurrent use and allocation-free on the
// update path: counters and gauges are single atomics, histograms are a
// preallocated bucket array of atomics. Instruments work detached from any
// registry (a nil *Registry is a valid constructor receiver), so hot paths
// never branch on whether observability is enabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one exportable instrument.
type Metric interface {
	// Desc returns the instrument's static description.
	Desc() Desc
	// writeValue renders the sample lines (without HELP/TYPE headers).
	writeValue(b *strings.Builder)
	// expvarValue returns the instrument's value for /debug/vars.
	expvarValue() any
}

// Desc describes a metric series.
type Desc struct {
	// Name is the base series name, e.g. "jets_jobs_submitted_total".
	Name string
	// Labels is a rendered Prometheus label set without braces, e.g.
	// `shard="3"`; empty for an unlabeled series.
	Labels string
	// Help is the one-line HELP text.
	Help string
	// Type is "counter", "gauge", or "histogram".
	Type string
}

// series is the full identity: name plus label set.
func (d Desc) series() string {
	if d.Labels == "" {
		return d.Name
	}
	return d.Name + "{" + d.Labels + "}"
}

// Registry is an ordered collection of metrics. Registration is locked (cold
// path); instrument updates never touch the registry.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
	seen    map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// Register adds instruments to the registry. A duplicate series (same name
// and labels) keeps the first registration and is reported through the
// returned error rather than panicking or replacing — a second engine in the
// same process (tests, simjets) re-registering package-level instruments
// must not crash, and the first registration stays authoritative. A nil
// receiver is a no-op, so constructors can thread an optional registry
// without branching.
func (r *Registry) Register(ms ...Metric) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var dups []string
	for _, m := range ms {
		key := m.Desc().series()
		if r.seen[key] {
			dups = append(dups, key)
			continue
		}
		r.seen[key] = true
		r.metrics = append(r.metrics, m)
	}
	if dups != nil {
		return fmt.Errorf("obs: duplicate series kept first registration: %s", strings.Join(dups, ", "))
	}
	return nil
}

// Lookup returns the registered metric for a full series identity (base name
// plus rendered label set, e.g. `jets_shard_idle_workers{shard="3"}`), or nil
// when no such series is registered. Cold path; used by the alert engine to
// resolve rule sources by name.
func (r *Registry) Lookup(series string) Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seen[series] {
		return nil
	}
	for _, m := range r.metrics {
		if m.Desc().series() == series {
			return m
		}
	}
	return nil
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, grouping serieses that share a base name under one
// HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]Metric(nil), r.metrics...)
	r.mu.Unlock()
	// Stable output: sort by base name, then label set, preserving the
	// grouping the format requires.
	sort.SliceStable(ms, func(i, j int) bool {
		di, dj := ms[i].Desc(), ms[j].Desc()
		if di.Name != dj.Name {
			return di.Name < dj.Name
		}
		return di.Labels < dj.Labels
	})
	var b strings.Builder
	lastName := ""
	for _, m := range ms {
		d := m.Desc()
		if d.Name != lastName {
			fmt.Fprintf(&b, "# HELP %s %s\n", d.Name, d.Help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", d.Name, d.Type)
			lastName = d.Name
		}
		m.writeValue(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns series name -> value for every registered metric, the
// /debug/vars payload. Histogram values are {count, sum, mean} objects.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	ms := append([]Metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.Desc().series()] = m.expvarValue()
	}
	return out
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
	d Desc
}

// NewCounter creates a detached counter (register it explicitly, or use
// Registry.Counter).
func NewCounter(name, help string) *Counter {
	return &Counter{d: Desc{Name: name, Help: help, Type: "counter"}}
}

// Counter creates and registers a counter. Valid on a nil registry (the
// counter still works, it is just not exported).
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter(name, help)
	r.Register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error but not checked on the
// hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Desc implements Metric.
func (c *Counter) Desc() Desc { return c.d }

func (c *Counter) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.d.series(), c.v.Load())
}

func (c *Counter) expvarValue() any { return c.v.Load() }

// CounterFunc exports an externally maintained monotonic count — e.g. an
// atomic a subsystem already keeps — sampled at scrape time, so enabling
// export adds no second increment to the subsystem's hot path.
type CounterFunc struct {
	fn func() int64
	d  Desc
}

// CounterFunc creates and registers a sampled counter.
func (r *Registry) CounterFunc(name, help string, fn func() int64) *CounterFunc {
	return r.CounterFuncL(name, "", help, fn)
}

// CounterFuncL creates and registers a sampled counter with a label set
// (e.g. `instance="2"`), so several subsystem instances in one process can
// export the same base name without colliding in the registry.
func (r *Registry) CounterFuncL(name, labels, help string, fn func() int64) *CounterFunc {
	c := &CounterFunc{fn: fn, d: Desc{Name: name, Labels: labels, Help: help, Type: "counter"}}
	r.Register(c)
	return c
}

// Value samples the underlying count.
func (c *CounterFunc) Value() int64 { return c.fn() }

// Desc implements Metric.
func (c *CounterFunc) Desc() Desc { return c.d }

func (c *CounterFunc) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.d.series(), c.fn())
}

func (c *CounterFunc) expvarValue() any { return c.fn() }

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a settable atomic level.
type Gauge struct {
	v atomic.Int64
	d Desc
}

// NewGauge creates a detached gauge.
func NewGauge(name, help string) *Gauge {
	return &Gauge{d: Desc{Name: name, Help: help, Type: "gauge"}}
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := NewGauge(name, help)
	r.Register(g)
	return g
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Desc implements Metric.
func (g *Gauge) Desc() Desc { return g.d }

func (g *Gauge) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", g.d.series(), g.v.Load())
}

func (g *Gauge) expvarValue() any { return g.v.Load() }

// GaugeFunc samples a live value at scrape time (queue depth, idle workers):
// the instrumented subsystem keeps its own state and pays nothing until
// someone scrapes.
type GaugeFunc struct {
	fn func() float64
	d  Desc
}

// GaugeFunc creates and registers a sampled gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return r.GaugeFuncL(name, "", help, fn)
}

// GaugeFuncL creates and registers a sampled gauge with a label set (e.g.
// `shard="3"`), for per-shard series sharing one base name.
func (r *Registry) GaugeFuncL(name, labels, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{fn: fn, d: Desc{Name: name, Labels: labels, Help: help, Type: "gauge"}}
	r.Register(g)
	return g
}

// Value samples the underlying level.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// Desc implements Metric.
func (g *GaugeFunc) Desc() Desc { return g.d }

func (g *GaugeFunc) writeValue(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.d.series(), formatFloat(g.fn()))
}

func (g *GaugeFunc) expvarValue() any { return g.fn() }

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ---------------------------------------------------------------------------
// Histogram

// DefLatencyBounds are the default duration histogram bucket upper bounds:
// exponential coverage from 100µs (sub-millisecond dispatch decisions) to
// 30s (slow PMI wire-ups on congested networks).
var DefLatencyBounds = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second,
}

// Hist is a fixed-bucket duration histogram with atomic bucket counters. A
// sample lands in the first bucket whose upper bound it does not exceed; the
// final implicit bucket is +Inf. Observe is allocation-free.
type Hist struct {
	d      Desc
	bounds []float64      // upper bounds in seconds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sumNs  atomic.Int64
}

// NewHist creates a detached histogram over the given bucket upper bounds
// (nil uses DefLatencyBounds). Bounds must be ascending.
func NewHist(name, help string, bounds []time.Duration) *Hist {
	return NewHistL(name, "", help, bounds)
}

// NewHistL creates a detached histogram with a label set (e.g.
// `instance="2"`), so per-instance histograms share one base name.
func NewHistL(name, labels, help string, bounds []time.Duration) *Hist {
	if bounds == nil {
		bounds = DefLatencyBounds
	}
	h := &Hist{
		d:      Desc{Name: name, Labels: labels, Help: help, Type: "histogram"},
		bounds: make([]float64, len(bounds)),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.bounds[i] = b.Seconds()
		if i > 0 && h.bounds[i] <= h.bounds[i-1] {
			panic("obs: histogram bounds must be ascending")
		}
	}
	return h
}

// Hist creates and registers a duration histogram.
func (r *Registry) Hist(name, help string, bounds []time.Duration) *Hist {
	h := NewHist(name, help, bounds)
	r.Register(h)
	return h
}

// Observe records one duration. Allocation-free: a bounded scan over the
// preallocated bucket array plus three atomic adds.
func (h *Hist) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Quantile estimates the q-quantile (0 < q < 1) of everything observed so
// far, linearly interpolated within the bucket holding the target rank —
// the standard Prometheus histogram_quantile estimate computed directly
// from the atomic bucket counters. Allocation-free: two bounded scans over
// the preallocated bucket array. Samples in the implicit +Inf bucket clamp
// to the highest finite bound. Returns 0 when nothing has been observed.
func (h *Hist) Quantile(q float64) time.Duration {
	total := int64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := rankFor(q, total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if cum < target {
			continue
		}
		return h.interp(i, c, cum, target)
	}
	return h.maxBound()
}

// maxBound is the highest finite bucket edge, the clamp for +Inf samples.
func (h *Hist) maxBound() time.Duration {
	if len(h.bounds) == 0 {
		return 0
	}
	return time.Duration(h.bounds[len(h.bounds)-1] * float64(time.Second))
}

// Buckets copies the current per-bucket counts (len NumBuckets, final entry
// the implicit +Inf bucket) into dst, reusing it when it has capacity. The
// snapshots feed QuantileOfDelta for windowed quantiles.
func (h *Hist) Buckets(dst []int64) []int64 {
	n := len(h.counts)
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return dst
}

// NumBuckets reports the bucket count including the implicit +Inf bucket.
func (h *Hist) NumBuckets() int { return len(h.counts) }

// QuantileOfDelta estimates the q-quantile of the observations made between
// two Buckets snapshots (prev may be nil, meaning "since creation"): the
// sliding-window form of Quantile used by alert rules, so a long-lived
// histogram's ancient samples cannot mask a current regression — or keep an
// alert firing after the regression recovered. Returns 0 when the window
// holds no observations.
func (h *Hist) QuantileOfDelta(prev, cur []int64, q float64) time.Duration {
	if len(cur) != len(h.counts) || (prev != nil && len(prev) != len(h.counts)) {
		return 0
	}
	at := func(i int) int64 {
		d := cur[i]
		if prev != nil {
			d -= prev[i]
		}
		return d
	}
	total := int64(0)
	for i := range cur {
		total += at(i)
	}
	if total <= 0 {
		return 0
	}
	target := rankFor(q, total)
	cum := int64(0)
	for i := range cur {
		c := at(i)
		cum += c
		if cum < target {
			continue
		}
		return h.interp(i, c, cum, target)
	}
	return h.maxBound()
}

// rankFor maps a quantile to a 1-based target rank, clamped to [1, total].
func rankFor(q float64, total int64) int64 {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	return target
}

// interp linearly interpolates the target rank inside bucket i, where c is
// the bucket's count and cum the cumulative count through it (c > 0, since
// cum first reached target here).
func (h *Hist) interp(i int, c, cum, target int64) time.Duration {
	if i == len(h.bounds) {
		// +Inf bucket: no finite upper edge to interpolate toward.
		return h.maxBound()
	}
	lo := 0.0
	if i > 0 {
		lo = h.bounds[i-1]
	}
	hi := h.bounds[i]
	frac := float64(target-(cum-c)) / float64(c)
	return time.Duration((lo + frac*(hi-lo)) * float64(time.Second))
}

// Count reports the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum reports the total observed duration.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Desc implements Metric.
func (h *Hist) Desc() Desc { return h.d }

func (h *Hist) writeValue(b *strings.Builder) {
	labels := func(le string) string {
		if h.d.Labels == "" {
			return `le="` + le + `"`
		}
		return h.d.Labels + `,le="` + le + `"`
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", h.d.Name, labels(formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", h.d.Name, labels("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", h.d.Name, bracedLabels(h.d.Labels), h.Sum().Seconds())
	fmt.Fprintf(b, "%s_count%s %d\n", h.d.Name, bracedLabels(h.d.Labels), h.count.Load())
}

func bracedLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func (h *Hist) expvarValue() any {
	n := h.count.Load()
	mean := 0.0
	if n > 0 {
		mean = h.Sum().Seconds() / float64(n)
	}
	return map[string]any{"count": n, "sum_seconds": h.Sum().Seconds(), "mean_seconds": mean}
}
