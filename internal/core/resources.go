package core

import (
	"errors"

	"hadoop2perf/internal/timeline"
)

// ResourceEstimate is the model's prediction of the resources one job
// consumes — the paper's stated future work ("extend our model to be able to
// estimate the amount of consumed resources for each task and the whole
// job", §6). Quantities are service demands, not wall-clock: CPU is in
// core-seconds, Disk and Network in bandwidth-seconds at nominal speed.
type ResourceEstimate struct {
	// Per task class, summed over the job's tasks.
	PerClass map[timeline.Class]ResourceUse
	// Total sums the classes.
	Total ResourceUse
	// MeanUtilization is the predicted average fraction of the cluster's
	// capacity this job keeps busy at each center over its response time
	// (0..1 per center; >1 would mean infeasible).
	CPUUtilization     float64
	DiskUtilization    float64
	NetworkUtilization float64
}

// ResourceUse is a demand vector.
type ResourceUse struct {
	CPUSeconds     float64
	DiskSeconds    float64
	NetworkSeconds float64
}

func (u ResourceUse) add(cpu, disk, net float64) ResourceUse {
	u.CPUSeconds += cpu
	u.DiskSeconds += disk
	u.NetworkSeconds += net
	return u
}

// EstimateResources predicts per-class and total resource consumption for
// the configured job, plus mean utilization of the cluster over the
// predicted response time. It runs the model to convergence first.
func EstimateResources(cfg Config) (ResourceEstimate, Prediction, error) {
	pred, err := Predict(cfg)
	if err != nil {
		return ResourceEstimate{}, Prediction{}, err
	}
	cfg.applyDefaults()
	if pred.ResponseTime <= 0 {
		return ResourceEstimate{}, Prediction{}, errors.New("core: non-positive predicted response")
	}
	est := ResourceEstimate{PerClass: map[timeline.Class]ResourceUse{}}
	var h hwView
	h.init(cfg.Spec)
	infl := faultFactors(cfg, &h)
	classes := initialize(cfg, &h, infl)
	for i := range pred.Timeline.Tasks {
		t := &pred.Timeline.Tasks[i]
		cpu, disk, net := taskDemandOn(&cfg, &h, t, &classes, infl)
		est.PerClass[t.Class] = est.PerClass[t.Class].add(cpu, disk, net)
		est.Total = est.Total.add(cpu, disk, net)
	}
	// Capacity denominators: all cores and spindles across classes, and the
	// shared network fabric width.
	var totalCPUs, totalDisks float64
	for _, c := range h.classes {
		totalCPUs += float64(c.Count) * float64(c.CPUs)
		totalDisks += float64(c.Count) * float64(c.Disks)
	}
	fabric := float64(h.nodes) / 2
	if fabric < 1 {
		fabric = 1
	}
	est.CPUUtilization = est.Total.CPUSeconds / (pred.ResponseTime * totalCPUs)
	est.DiskUtilization = est.Total.DiskSeconds / (pred.ResponseTime * totalDisks)
	est.NetworkUtilization = est.Total.NetworkSeconds / (pred.ResponseTime * fabric)
	return est, pred, nil
}
