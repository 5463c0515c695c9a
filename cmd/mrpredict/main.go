// Command mrpredict estimates the average response time of a MapReduce job
// on a Hadoop 2.x cluster using the analytic performance model.
//
// Usage:
//
//	mrpredict -nodes 4 -input-gb 1 -block-mb 128 -reduces 4 -jobs 1 \
//	          -estimator forkjoin -workload wordcount [-v] \
//	          [-trace history.json [-trace-trim 0.02]]
//
// With -trace, the model is initialized from the per-class statistics fitted
// out of a job-history trace (the §4.2.1 first approach; write traces with
// `mrsim -trace`) instead of the Herodotou static model.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hadoop2perf"
	"hadoop2perf/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrpredict: ")
	var (
		nodes     = flag.Int("nodes", 4, "cluster size")
		inputGB   = flag.Float64("input-gb", 1, "input size in GB")
		blockMB   = flag.Float64("block-mb", 128, "HDFS block size in MB")
		reduces   = flag.Int("reduces", 0, "reducer count (default: one per node)")
		jobs      = flag.Int("jobs", 1, "number of identical concurrent jobs")
		estimator = flag.String("estimator", "forkjoin", "forkjoin | tripathi | literal")
		wl        = flag.String("workload", "wordcount", "wordcount | grep | terasort")
		verbose   = flag.Bool("v", false, "print per-class responses and the precedence tree")
		traceFile = flag.String("trace", "", "job-history trace (JSON) to calibrate the model from")
		traceTrim = flag.Float64("trace-trim", 0, "fraction trimmed from each duration tail when fitting the trace")
	)
	flag.Parse()

	var prof hadoop2perf.Profile
	switch *wl {
	case "wordcount":
		prof = hadoop2perf.WordCount()
	case "grep":
		prof = hadoop2perf.Grep()
	case "terasort":
		prof = hadoop2perf.TeraSort()
	default:
		log.Fatalf("unknown workload %q", *wl)
	}
	var est hadoop2perf.Estimator
	switch *estimator {
	case "forkjoin":
		est = hadoop2perf.EstimatorForkJoin
	case "tripathi":
		est = hadoop2perf.EstimatorTripathi
	case "literal":
		est = hadoop2perf.EstimatorPaperLiteral
	default:
		log.Fatalf("unknown estimator %q", *estimator)
	}
	r := *reduces
	if r <= 0 {
		r = *nodes
	}
	spec := hadoop2perf.DefaultCluster(*nodes)
	job, err := hadoop2perf.NewJob(0, *inputGB*1024, *blockMB, r, prof)
	if err != nil {
		log.Fatal(err)
	}
	cfg := hadoop2perf.ModelConfig{Spec: spec, Job: job, NumJobs: *jobs, Estimator: est}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		res, err := hadoop2perf.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fit, err := hadoop2perf.FitTrace(res, hadoop2perf.FitOptions{TrimFraction: *traceTrim})
		if err != nil {
			log.Fatal(err)
		}
		cfg.History = fit.History
		fmt.Printf("calibrated from %s: %d jobs, %d task samples, %d classes\n",
			*traceFile, fit.Jobs, fit.Tasks, len(fit.History))
	}
	pred, err := hadoop2perf.Predict(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload=%s input=%.1fGB block=%.0fMB maps=%d reduces=%d nodes=%d jobs=%d\n",
		prof.Name, *inputGB, *blockMB, job.NumMaps(), r, *nodes, *jobs)
	fmt.Printf("estimated job response time (%s): %.1f s  (converged=%v after %d iterations)\n",
		est, pred.ResponseTime, pred.Converged, pred.Iterations)

	if *verbose {
		for _, cls := range []timeline.Class{timeline.ClassMap, timeline.ClassShuffleSort, timeline.ClassMerge} {
			fmt.Printf("  %-13s mean task response: %.2f s\n", cls, pred.ClassResponse[cls])
		}
		fmt.Printf("  timeline makespan: %.1f s, precedence tree: depth=%d leaves=%d\n",
			pred.Timeline.Makespan, pred.Tree.Depth(), pred.Tree.NumLeaves())
	}
}
