package mrsim

import (
	"fmt"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// checkRunOracle holds one simulation to the bookkeeping every run must
// keep, faults or not: each map split and each reducer's shuffle-sort and
// merge is recorded exactly once (killed attempts are not recorded), a
// job's records come sorted by start, and every task lies inside its job's
// submit-to-end window, which lies inside the makespan.
func checkRunOracle(t *testing.T, name string, cfg Config, res Result) {
	t.Helper()
	if len(res.Jobs) != len(cfg.Jobs) {
		t.Fatalf("%s: %d job results for %d jobs", name, len(res.Jobs), len(cfg.Jobs))
	}
	for ji, jr := range res.Jobs {
		job := cfg.Jobs[ji]
		want := map[TaskClass]int{ClassMap: job.NumMaps(), ClassShuffleSort: job.NumReduces, ClassMerge: job.NumReduces}
		seen := map[string]int{}
		last := jr.Submit
		for _, task := range jr.Tasks {
			seen[fmt.Sprintf("%s/%d", task.Class, task.TaskID)]++
			if task.TaskID < 0 || task.TaskID >= want[task.Class] {
				t.Errorf("%s job %d: %s task %d outside [0, %d)", name, ji, task.Class, task.TaskID, want[task.Class])
			}
			if task.Start < last {
				t.Errorf("%s job %d: %s task %d starts at %v, after a record starting at %v", name, ji, task.Class, task.TaskID, task.Start, last)
			}
			last = task.Start
			if task.Start < jr.Submit || task.End < task.Start || task.End > jr.End {
				t.Errorf("%s job %d: %s task %d runs [%v, %v] outside the job's [%v, %v]",
					name, ji, task.Class, task.TaskID, task.Start, task.End, jr.Submit, jr.End)
			}
		}
		for cls, n := range want {
			for id := 0; id < n; id++ {
				if c := seen[fmt.Sprintf("%s/%d", cls, id)]; c != 1 {
					t.Errorf("%s job %d: %s task %d recorded %d times, want once", name, ji, cls, id, c)
				}
			}
		}
		if jr.End > res.Makespan {
			t.Errorf("%s job %d: ends at %v, after the makespan %v", name, ji, jr.End, res.Makespan)
		}
	}
}

func TestRunOracleBookkeeping(t *testing.T) {
	job := func(inputMB float64, reduces int) workload.Job { return smallJob(t, inputMB, reduces) }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single job", Config{Spec: cluster.Default(4), Jobs: []workload.Job{job(1024, 4)}, Seed: 2}},
		{"fair multi-job", Config{Spec: cluster.Default(3), Jobs: []workload.Job{job(768, 2), job(512, 3), job(1024, 1)},
			Scheduler: yarn.PolicyFair, Seed: 5}},
		{"staggered", Config{Spec: cluster.Default(2), Jobs: []workload.Job{job(512, 2), job(512, 2)},
			SubmitTimes: []float64{0, 17}, Seed: 3}},
		{"node failures", Config{Spec: cluster.Default(4), Jobs: []workload.Job{job(1024, 4)}, Seed: 7,
			Faults: &fault.Plan{NodeMTTFSec: 150, RepairDelaySec: 30}}},
		{"speculation", Config{Spec: cluster.Default(4), Jobs: []workload.Job{job(1024, 4)}, Seed: 7,
			Faults: &fault.Plan{StragglerProb: 0.3, StragglerAlpha: 2, Speculation: true}}},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			cfg := tc.cfg
			cfg.Seed += seed
			checkRunOracle(t, fmt.Sprintf("%s seed %d", tc.name, cfg.Seed), cfg, run(t, cfg))
		}
	}
}
