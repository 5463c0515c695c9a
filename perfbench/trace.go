package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// span is one traced interval. The benchmark's own span around an operation
// has no parent; the layer spans recorded under it share its request ID and
// name it as their parent. Stage spans from ?debug=timings carry an
// accumulated duration and the number of spans the service folded into it.
type span struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"startUs,omitempty"`
	DurUS   float64 `json:"durUs"`
	Count   int64   `json:"count,omitempty"`
}

// stageTotal is one stage's accumulated time and span count.
type stageTotal struct {
	seconds float64
	spans   int64
}

// stageAgg accumulates the traced phase: operation count and latency, the
// service's stage totals and request-scoped counters, and (plans) the
// candidates each response reports as evaluated.
type stageAgg struct {
	ops       int
	latency   float64 // seconds, summed over operations
	stages    map[string]stageTotal
	counts    map[string]int64
	evaluated int
}

func newStageAgg() stageAgg {
	return stageAgg{stages: map[string]stageTotal{}, counts: map[string]int64{}}
}

func (a *stageAgg) addStage(name string, seconds float64, spans int64) {
	t := a.stages[name]
	t.seconds += seconds
	t.spans += spans
	a.stages[name] = t
}

// sortedKeys returns up to limit keys of m in ascending order.
func sortedKeys[V any](m map[int]V, limit int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

// writeSpans writes the spans kept in memory during a traced run, one JSON
// object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logf writes one diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
