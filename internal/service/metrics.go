package service

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hadoop2perf/internal/obs"
)

// prometheusContentType is the Prometheus text exposition format version
// this package emits.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsJSON reports whether an Accept header asks for the JSON metrics body
// rather than the Prometheus text default.
func wantsJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == "application/json" {
			return true
		}
	}
	return false
}

// writePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): request counts by kind, cache
// hits/misses and population, and simulator execution counters including the
// in-flight gauge.
func writePrometheus(w io.Writer, m Metrics) error {
	type metric struct {
		name, help, kind string
		labels           string
		value            float64
	}
	metrics := []metric{
		{"mrserved_requests_total", "Accepted API calls by kind.", "counter", `kind="predict"`, float64(m.PredictRequests)},
		{"mrserved_requests_total", "", "", `kind="simulate"`, float64(m.SimulateRequests)},
		{"mrserved_requests_total", "", "", `kind="compare"`, float64(m.CompareRequests)},
		{"mrserved_requests_total", "", "", `kind="plan"`, float64(m.PlanRequests)},
		{"mrserved_requests_total", "", "", `kind="calibrate"`, float64(m.CalibrateRequests)},
		{"mrserved_cache_hits_total", "Requests served without computing (LRU hit or shared in-flight result).", "counter", "", float64(m.CacheHits)},
		{"mrserved_cache_misses_total", "Requests that ran a fresh computation, whether or not its answer was stored.", "counter", "", float64(m.CacheMisses)},
		{"mrserved_cache_entries", "Current LRU cache population.", "gauge", "", float64(m.CacheEntries)},
		{"mrserved_inflight_sims", "Simulator executions running right now (in-flight workers).", "gauge", "", float64(m.InFlightSims)},
		{"mrserved_sim_runs_total", "Completed simulator executions.", "counter", "", float64(m.SimRuns)},
		{"mrserved_sim_faults_injected_total", "Node failures (including preemptible revocations) injected across the seeded repetitions of completed simulator executions.", "counter", "", float64(m.SimFaultsInjected)},
		{"mrserved_sim_tasks_reexecuted_total", "Task attempts re-enqueued after node loss plus speculative backups launched, across completed simulator executions.", "counter", "", float64(m.SimTasksReexecuted)},
		{"mrserved_profiles_active", "Live (unexpired) calibrated profiles in the registry.", "gauge", "", float64(m.ProfilesActive)},
		{"mrserved_model_iterations_total", "Model fixed-point iterations spent by computed model solves (predictions and compares), by loop (outer damped rounds vs inner MVA sweeps).", "counter", `loop="outer"`, float64(m.ModelOuterIterations)},
		{"mrserved_model_iterations_total", "", "", `loop="inner"`, float64(m.ModelInnerIterations)},
		{"mrserved_model_reused_rounds_total", "Outer model rounds that re-timed the first round's placement and reused its tree and demand rows.", "counter", "", float64(m.ModelReusedRounds)},
		{"mrserved_model_unconverged_total", "Computed estimator answers (one per prediction, two per compare) that stopped at the outer iteration cap before converging; served, never cached.", "counter", "", float64(m.ModelUnconverged)},
		{"mrserved_workflow_requests_total", "Predict/plan requests that carried a workflow block (also counted in their kind).", "counter", "", float64(m.WorkflowRequests)},
		{"mrserved_admission_queued_cost", "Outstanding admitted cost units (queued + executing) in the admission controller.", "gauge", "", float64(m.Admission.QueuedCost)},
		{"mrserved_admission_queue_limit", "Admission bound in cost units; reaching it sheds with queue_full.", "gauge", "", float64(m.Admission.MaxQueueCost)},
		{"mrserved_admission_est_wait_seconds", "Estimated queue wait for a newly admitted request at the observed per-unit service time.", "gauge", "", m.Admission.EstWaitSeconds},
		{"mrserved_admission_admitted_total", "Requests admitted past the controller, by cost class.", "counter", `class="cheap"`, float64(m.Admission.AdmittedCheap)},
		{"mrserved_admission_admitted_total", "", "", `class="expensive"`, float64(m.Admission.AdmittedExpensive)},
		{"mrserved_admission_shed_total", "Requests shed with a structured 503, by reason.", "counter", `reason="queue_full"`, float64(m.Admission.ShedQueueFull)},
		{"mrserved_admission_shed_total", "", "", `reason="deadline"`, float64(m.Admission.ShedDeadline)},
		{"mrserved_admission_shed_total", "", "", `reason="draining"`, float64(m.Admission.ShedDraining)},
		{"mrserved_breaker_state", "Simulator circuit breaker state: 0 closed, 1 open, 2 half-open.", "gauge", "", float64(m.BreakerStateCode)},
		{"mrserved_breaker_trips_total", "Closed-to-open transitions of the simulator circuit breaker.", "counter", "", float64(m.BreakerTrips)},
		{"mrserved_degraded_responses_total", "Simulator-backed answers served from the model-only fallback while the breaker was open.", "counter", "", float64(m.DegradedResponses)},
	}
	seen := ""
	for _, mt := range metrics {
		if mt.name != seen {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", mt.name, mt.help, mt.name, mt.kind); err != nil {
				return err
			}
			seen = mt.name
		}
		name := mt.name
		if mt.labels != "" {
			name += "{" + mt.labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, mt.value); err != nil {
			return err
		}
	}
	if err := writeHistogramFamily(w, "mrserved_request_duration_seconds",
		"End-to-end request handling latency by endpoint kind.", "kind", m.RequestDurations); err != nil {
		return err
	}
	return writeHistogramFamily(w, "mrserved_stage_duration_seconds",
		"Serving-stage span durations: queue wait, cache lookup, profile resolution, model solve, simulation, plan search.",
		"stage", m.StageDurations)
}

// writeHistogramFamily renders one labeled histogram family in the
// Prometheus text format: per label value the cumulative _bucket series
// (closed by le="+Inf"), then _sum and _count. Label values are emitted in
// sorted order so the exposition is deterministic.
func writeHistogramFamily(w io.Writer, name, help, label string, series map[string]obs.HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap := series[k]
		for _, b := range snap.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, k, fmt.Sprintf("%g", b.UpperBound), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, k, snap.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, k, snap.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, k, snap.Count); err != nil {
			return err
		}
	}
	return nil
}
