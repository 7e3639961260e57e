package alerts

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"jets/internal/dispatch"
	"jets/internal/obs"
)

// ForDispatcher is the curated default rule set for a live dispatcher,
// covering the §6.1.5 fault regimes an operator must detect without an
// external scraper:
//
//   - worker-loss-rate (critical): any worker declared dead inside the
//     trailing window — the shrinking-allocation signature of the fault
//     experiments, and the precursor of a retry storm.
//   - no-workers (critical): work queued or running with an empty worker
//     pool — the §6.1.5 endpoint where the allocation has shrunk to zero.
//     For debounces engine startup, where jobs legitimately land before the
//     first worker registers.
//   - queue-wait-p99 (warning): the trailing-window p99 of submit-to-seat
//     latency, the dispatcher's primary backpressure signal.
//   - idle-starvation (warning): idle workers coexisting with queued jobs
//     for a sustained period — head-of-line blocking by a too-wide MPI job,
//     or a scheduling stall.
//   - queue-depth (warning): sustained deep backlog.
//   - trace-drops (warning): lifecycle trace events lost to observer
//     backpressure inside the window.
//   - journal-errors (critical): journal records dropped inside the window —
//     the WAL's degraded-mode buffer overflowed, so job state written during
//     the outage is not durable and a crash there loses work.
func ForDispatcher(d *dispatch.Dispatcher) []Rule {
	return []Rule{
		{
			Name: "worker-loss-rate", Severity: Critical,
			Counter:   func() int64 { return int64(d.Stats().WorkersLost) },
			Op:        Above,
			Threshold: 0,
			Window:    30 * time.Second,
			Hold:      10 * time.Second,
		},
		{
			Name: "no-workers", Severity: Critical,
			Gauge: func() float64 {
				if d.Workers() == 0 && d.QueuedJobs()+d.RunningJobs() > 0 {
					return 1
				}
				return 0
			},
			Op: Above, Threshold: 0,
			For:  5 * time.Second,
			Hold: 5 * time.Second,
		},
		{
			Name: "queue-wait-p99", Severity: Warning,
			Hist: d.QueueWaitHist(), Q: 0.99,
			Op: Above, Threshold: 5.0,
			Window: 30 * time.Second,
			Hold:   10 * time.Second,
		},
		{
			Name: "idle-starvation", Severity: Warning,
			Gauge: func() float64 {
				if d.IdleWorkers() > 0 && d.QueuedJobs() > 0 {
					return 1
				}
				return 0
			},
			Op: Above, Threshold: 0,
			For:  10 * time.Second,
			Hold: 10 * time.Second,
		},
		{
			Name: "queue-depth", Severity: Warning,
			Gauge:     func() float64 { return float64(d.QueuedJobs()) },
			Op:        Above,
			Threshold: 10000,
			For:       30 * time.Second,
			Hold:      30 * time.Second,
		},
		{
			Name: "trace-drops", Severity: Warning,
			Counter:   func() int64 { return int64(d.DroppedEvents()) },
			Op:        Above,
			Threshold: 0,
			Window:    30 * time.Second,
			Hold:      10 * time.Second,
		},
		{
			Name: "journal-errors", Severity: Critical,
			Counter:   func() int64 { return int64(d.Stats().JournalErrors) },
			Op:        Above,
			Threshold: 0,
			Window:    30 * time.Second,
			Hold:      10 * time.Second,
		},
	}
}

// Sources a rule file can reference: instruments exposing a sampled int64
// (Counter, CounterFunc, Gauge) or float64 (GaugeFunc) value.
type int64Source interface{ Value() int64 }
type floatSource interface{ Value() float64 }

// ParseRules reads the -alert-rules file format: one rule per line, blank
// lines and '#' comments ignored.
//
//	[name:] <severity> <kind> <series> <op> <threshold> [window <dur>] [for <dur>] [hold <dur>]
//
// severity is "critical" or "warn"; kind is "gauge", "rate", or a quantile
// like "p99" / "p99.9" (requires a histogram series); op is ">" or "<";
// threshold parses as a Go duration ("500ms", converted to seconds) or a
// plain number. series names resolve against the registry at parse time,
// including labeled serieses like jets_shard_queued_jobs{shard="0"}, so a
// typo fails fast instead of silently watching nothing.
//
//	# fire while any worker was lost in the trailing 30s
//	critical rate jets_workers_lost_total > 0 window 30s hold 10s
//	slow-seat: warn p99 jets_dispatch_queue_wait_seconds > 2500ms window 60s
func ParseRules(r io.Reader, reg *obs.Registry) ([]Rule, error) {
	var rules []Rule
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := parseRuleLine(line, reg)
		if err != nil {
			return nil, fmt.Errorf("alerts: line %d: %w", lineNo, err)
		}
		rules = append(rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("alerts: reading rules: %w", err)
	}
	return rules, nil
}

func parseRuleLine(line string, reg *obs.Registry) (Rule, error) {
	fields := strings.Fields(line)
	var rule Rule
	if strings.HasSuffix(fields[0], ":") {
		rule.Name = strings.TrimSuffix(fields[0], ":")
		fields = fields[1:]
	}
	if len(fields) < 5 {
		return rule, fmt.Errorf("want [name:] <severity> <kind> <series> <op> <threshold> ..., got %q", line)
	}
	switch fields[0] {
	case "critical":
		rule.Severity = Critical
	case "warn", "warning":
		rule.Severity = Warning
	default:
		return rule, fmt.Errorf("unknown severity %q (want critical or warn)", fields[0])
	}
	kind, series := fields[1], fields[2]
	m := reg.Lookup(series)
	if m == nil {
		return rule, fmt.Errorf("unknown series %q", series)
	}
	switch {
	case kind == "gauge":
		switch src := m.(type) {
		case floatSource:
			rule.Gauge = src.Value
		case int64Source:
			rule.Gauge = func() float64 { return float64(src.Value()) }
		default:
			return rule, fmt.Errorf("series %q cannot back a gauge rule", series)
		}
	case kind == "rate":
		src, ok := m.(int64Source)
		if !ok {
			return rule, fmt.Errorf("series %q is not a counter; rate rules need one", series)
		}
		rule.Counter = src.Value
	case strings.HasPrefix(kind, "p"):
		pct, err := strconv.ParseFloat(kind[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return rule, fmt.Errorf("bad quantile %q (want e.g. p50, p99)", kind)
		}
		h, ok := m.(*obs.Hist)
		if !ok {
			return rule, fmt.Errorf("series %q is not a histogram; quantile rules need one", series)
		}
		rule.Hist, rule.Q = h, pct/100
	default:
		return rule, fmt.Errorf("unknown rule kind %q (want gauge, rate, or pNN)", kind)
	}
	switch fields[3] {
	case ">":
		rule.Op = Above
	case "<":
		rule.Op = Below
	default:
		return rule, fmt.Errorf("unknown op %q (want > or <)", fields[3])
	}
	thr, err := parseThreshold(fields[4])
	if err != nil {
		return rule, err
	}
	rule.Threshold = thr
	rest := fields[5:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return rule, fmt.Errorf("dangling option %q", rest[0])
		}
		d, err := time.ParseDuration(rest[1])
		if err != nil {
			return rule, fmt.Errorf("bad %s duration %q: %v", rest[0], rest[1], err)
		}
		switch rest[0] {
		case "window":
			rule.Window = d
		case "for":
			rule.For = d
		case "hold":
			rule.Hold = d
		default:
			return rule, fmt.Errorf("unknown option %q (want window, for, or hold)", rest[0])
		}
		rest = rest[2:]
	}
	if rule.Name == "" {
		rule.Name = kind + "(" + series + ")"
	}
	return rule, nil
}

// parseThreshold accepts a plain number or a Go duration (as seconds).
func parseThreshold(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad threshold %q (want a number or duration)", s)
}
