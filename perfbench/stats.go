package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minTailSamples is the sample count below which p99 is withheld: with fewer
// than 1000 samples, fewer than ten lie beyond the 99th percentile.
const minTailSamples = 1000

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted ascending
// values by the nearest-rank rule: the smallest value with at least p% of
// the samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	k = max(1, min(k, len(sorted)))
	return sorted[k-1]
}

// latencySummary is the median and tail of one run's operation latencies.
type latencySummary struct {
	n       int
	p50     float64
	p99     float64
	hasP99  bool
	maximum float64
}

// summarize sorts lat in place and summarizes it; p99 is reported only with
// at least minTailSamples samples.
func summarize(lat []float64) latencySummary {
	slices.Sort(lat)
	s := latencySummary{n: len(lat), p50: nearestRank(lat, 50)}
	if len(lat) > 0 {
		s.maximum = lat[len(lat)-1]
	}
	if len(lat) >= minTailSamples {
		s.p99, s.hasP99 = nearestRank(lat, 99), true
	}
	return s
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return nearestRank(s, 50)
}

// maxRSSMB is the process's peak resident set size in MiB (getrusage reports
// KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample is a reading of the Go runtime's GC and allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// runtimeDelta is the GC share of CPU, GC cycles per thousand operations and
// heap MB allocated per operation between two readings.
func runtimeDelta(a, b runtimeSample, ops int) (gcShare, cyclesPerKop, allocMBPerOp float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	if ops > 0 {
		cyclesPerKop = 1000 * float64(b.gcCycles-a.gcCycles) / float64(ops)
		allocMBPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops) / (1 << 20)
	}
	return gcShare, cyclesPerKop, allocMBPerOp
}
