package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty slice. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and the third quartile as a
// share of the median — the benchmark driver's measure of how far repeated
// measurements scatter (quartiles as Python's statistics.quantiles(n=4)
// gives them). 0 for fewer than two values or a zero median.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		n := len(s)
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

// tailPercentile picks the tail percentile to report for n samples: the
// highest of the candidates that still leaves at least ten samples beyond
// it, so the reported tail is never a single outlier. With fewer than 20
// samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// latencySummary is the p50 and the tail of a latency sample set, in ms.
type latencySummary struct {
	P50ms, TailMs float64
	TailPct       float64
	Samples       int
}

func summarizeLatency(ns []int64) latencySummary {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := tailPercentile(len(s))
	return latencySummary{
		P50ms:   float64(percentile(s, 50)) / 1e6,
		TailMs:  float64(percentile(s, p)) / 1e6,
		TailPct: p,
		Samples: len(s),
	}
}

// cpuTime is the user+system CPU consumed so far by this process and by
// every child it has waited for — the load generator, the in-process engine
// and, for the real-binary workloads, the tools and the tasks they forked.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // cannot fail for these two constants
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// procStatusKiB reads one "Vm...: N kB" field of /proc/self/status.
func procStatusKiB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// loadavg1 is the 1-minute load average, recorded before every round so a
// round that started on a busy box is flagged in the results.
func loadavg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fs := strings.Fields(string(b))
	if len(fs) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fs[0], 64)
	if err != nil {
		return -1
	}
	return v
}
