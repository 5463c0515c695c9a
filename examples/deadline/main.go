// Deadline-driven configuration: given a job and a soft deadline, which
// job configuration on a fixed cluster meets it? The prediction service's
// what-if planner sweeps real configurations (block size × reducers) under
// the deadline with the queueing-aware model, and the simulator checks the
// configuration it picks.
package main

import (
	"context"
	"fmt"
	"log"

	"hadoop2perf"
)

func main() {
	log.SetFlags(0)
	spec := hadoop2perf.DefaultCluster(4)
	job, err := hadoop2perf.NewJob(0, 5*1024, 128, 4, hadoop2perf.WordCount())
	if err != nil {
		log.Fatal(err)
	}

	// Every candidate is evaluated in parallel and cached, so re-planning
	// the same grid under another deadline costs no model solve.
	svc := hadoop2perf.NewService(hadoop2perf.ServiceOptions{})
	plan := func(deadline float64) hadoop2perf.PlanResponse {
		p, err := svc.Plan(context.Background(), hadoop2perf.PlanRequest{
			Spec:         spec,
			Job:          job,
			BlockSizesMB: []float64{64, 128, 256},
			Reducers:     []int{2, 4, 8},
			DeadlineSec:  deadline,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	const deadline = 300.0
	p := plan(deadline)
	fmt.Printf("what-if sweep on 4 nodes (deadline %.0f s): %d configurations\n",
		deadline, len(p.Candidates))
	fmt.Println("block MB  reducers  est. response  meets deadline")
	for _, c := range p.Candidates {
		mark := "  no"
		if c.Feasible {
			mark = " YES"
		}
		fmt.Printf("%8.0f  %8d  %11.1f s  %s\n", c.BlockSizeMB, c.Reducers, c.ResponseTime, mark)
	}
	if p.Best == nil {
		fmt.Println("no configuration meets the deadline; relax it or add nodes")
		return
	}
	best := *p.Best
	fmt.Printf("best configuration: %.0f MB blocks, %d reducers (%.1f s)\n",
		best.BlockSizeMB, best.Reducers, best.ResponseTime)

	for _, d := range []float64{600, 150, 120} {
		feasible := 0
		for _, c := range plan(d).Candidates {
			if c.Feasible {
				feasible++
			}
		}
		fmt.Printf("deadline %3.0f s: %d of %d configurations meet it\n", d, feasible, len(p.Candidates))
	}

	// Check the chosen configuration on the simulator before committing:
	// the median of five seeded runs against both model estimators.
	chosen, err := hadoop2perf.NewJob(0, job.InputMB, best.BlockSizeMB, best.Reducers, job.Profile)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := svc.Compare(context.Background(), hadoop2perf.CompareRequest{
		Spec: spec, Job: chosen, NumJobs: 1, Seed: 3, Reps: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulator check: %.1f s simulated, fork/join %.1f s, tripathi %.1f s (deadline %.0f s)\n",
		cmp.Simulated, cmp.ForkJoin, cmp.Tripathi, deadline)

	m := svc.Metrics()
	fmt.Printf("service: %d computations (model + simulator), %d served from cache\n",
		m.CacheMisses, m.CacheHits)
}
