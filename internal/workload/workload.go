// Package workload defines MapReduce job specifications and phase-level
// workload profiles.
//
// A Profile plays the role of the paper's "job profile": it converts data
// volumes into per-phase service demands (seconds of CPU, disk and network
// work) for map tasks and for the two reduce subtasks the paper models
// (shuffle-sort and merge). Profiles for WordCount (the paper's evaluation
// workload), Grep and a TeraSort-like job are provided; WordCount's constants
// are calibrated so that simulated response times land in the paper's range
// (tens of seconds for 1 GB on 4 nodes).
package workload

import (
	"errors"
	"fmt"

	"hadoop2perf/internal/hdfs"
)

// Profile holds per-MB service costs for every Herodotou phase of a
// MapReduce job (read, map, collect, spill, merge / shuffle, sort-merge,
// reduce, write) plus data-flow selectivities.
// JSON tags give the wire API (cmd/mrserved) camelCase field names.
type Profile struct {
	Name string `json:"name"`

	// Map-side phases.
	MapCPUPerMB     float64 `json:"mapCPUPerMB"`     // map function CPU, s/MB of input
	CollectCPUPerMB float64 `json:"collectCPUPerMB"` // serialization+partitioning CPU, s/MB of map output
	SortCPUPerMB    float64 `json:"sortCPUPerMB"`    // in-memory sort during spill, s/MB of map output
	MergeCPUPerMB   float64 `json:"mergeCPUPerMB"`   // on-disk merge CPU, s/MB of map output

	// Reduce-side phases.
	ShuffleCPUPerMB float64 `json:"shuffleCPUPerMB"` // decompression/copy CPU during shuffle, s/MB
	ReduceCPUPerMB  float64 `json:"reduceCPUPerMB"`  // reduce function CPU, s/MB of reduce input
	RSortCPUPerMB   float64 `json:"rsortCPUPerMB"`   // final merge-sort CPU, s/MB of reduce input

	// Selectivities.
	MapOutputRatio float64 `json:"mapOutputRatio"` // map output bytes / map input bytes
	OutputRatio    float64 `json:"outputRatio"`    // job output bytes / reduce input bytes

	// SpillPasses is how many times map output crosses the local disk before
	// it is final (1 spill + merges).
	SpillPasses float64 `json:"spillPasses"`

	// TaskJitterCV is the coefficient of variation of multiplicative task
	// service-time noise in the simulator (stragglers, JVM warmup, OS noise).
	TaskJitterCV float64 `json:"taskJitterCV"`

	// Fixed overheads (seconds).
	ContainerStartup float64 `json:"containerStartup"` // JVM/container launch per task
	AMStartup        float64 `json:"amStartup"`        // ApplicationMaster negotiation before first request
}

// WordCount returns the calibrated profile for the paper's evaluation
// workload: "map-and-reduce-input heavy" — large input and large
// intermediate data (paper §5, citing Shi et al. [8]).
func WordCount() Profile {
	return Profile{
		Name:             "wordcount",
		MapCPUPerMB:      0.160,
		CollectCPUPerMB:  0.020,
		SortCPUPerMB:     0.015,
		MergeCPUPerMB:    0.010,
		ShuffleCPUPerMB:  0.008,
		ReduceCPUPerMB:   0.060,
		RSortCPUPerMB:    0.030,
		MapOutputRatio:   0.80,
		OutputRatio:      0.10,
		SpillPasses:      1.5,
		TaskJitterCV:     0.08,
		ContainerStartup: 2.0,
		AMStartup:        4.0,
	}
}

// Grep returns a map-heavy, low-intermediate-data profile.
func Grep() Profile {
	return Profile{
		Name:             "grep",
		MapCPUPerMB:      0.090,
		CollectCPUPerMB:  0.004,
		SortCPUPerMB:     0.002,
		MergeCPUPerMB:    0.002,
		ShuffleCPUPerMB:  0.004,
		ReduceCPUPerMB:   0.010,
		RSortCPUPerMB:    0.006,
		MapOutputRatio:   0.02,
		OutputRatio:      1.0,
		SpillPasses:      1.0,
		TaskJitterCV:     0.08,
		ContainerStartup: 2.0,
		AMStartup:        4.0,
	}
}

// TeraSort returns a shuffle-heavy profile: intermediate data equals input.
func TeraSort() Profile {
	return Profile{
		Name:             "terasort",
		MapCPUPerMB:      0.030,
		CollectCPUPerMB:  0.020,
		SortCPUPerMB:     0.025,
		MergeCPUPerMB:    0.015,
		ShuffleCPUPerMB:  0.010,
		ReduceCPUPerMB:   0.020,
		RSortCPUPerMB:    0.035,
		MapOutputRatio:   1.0,
		OutputRatio:      1.0,
		SpillPasses:      2.0,
		TaskJitterCV:     0.08,
		ContainerStartup: 2.0,
		AMStartup:        4.0,
	}
}

// Validate reports configuration errors in the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return errors.New("workload: profile needs a name")
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"MapCPUPerMB", p.MapCPUPerMB},
		{"MapOutputRatio", p.MapOutputRatio},
		{"OutputRatio", p.OutputRatio},
		{"SpillPasses", p.SpillPasses},
	} {
		if v.val <= 0 {
			return fmt.Errorf("workload: %s must be positive", v.name)
		}
	}
	if p.TaskJitterCV < 0 || p.TaskJitterCV > 1 {
		return errors.New("workload: TaskJitterCV must be in [0,1]")
	}
	return nil
}

// Job is one MapReduce job submission.
type Job struct {
	// ID distinguishes concurrent jobs.
	ID int
	// InputMB is the total input size.
	InputMB float64
	// BlockSizeMB determines the number of map tasks (input splits).
	BlockSizeMB float64
	// NumReduces is the user-configured reducer count.
	NumReduces int
	// Profile supplies phase costs.
	Profile Profile
	// SlowStart: reduces become schedulable once 5% of maps completed
	// (mapreduce.job.reduce.slowstart.completedmaps default).
	SlowStart bool
	// SlowStartFraction overrides the 0.05 default when > 0.
	SlowStartFraction float64
}

// NewJob builds a job with validation.
func NewJob(id int, inputMB, blockSizeMB float64, reduces int, p Profile) (Job, error) {
	j := Job{
		ID: id, InputMB: inputMB, BlockSizeMB: blockSizeMB,
		NumReduces: reduces, Profile: p, SlowStart: true,
	}
	if err := j.Validate(); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Validate reports configuration errors in the job.
func (j Job) Validate() error {
	switch {
	case j.InputMB <= 0:
		return errors.New("workload: InputMB must be positive")
	case j.BlockSizeMB <= 0:
		return errors.New("workload: BlockSizeMB must be positive")
	case j.NumReduces <= 0:
		return errors.New("workload: NumReduces must be positive")
	}
	return j.Profile.Validate()
}

// Copies returns n copies of the job with IDs 0..n−1: a batch of
// identical concurrent submissions.
func (j Job) Copies(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = j
		jobs[i].ID = i
	}
	return jobs
}

// NumMaps is the split count (= number of map tasks).
func (j Job) NumMaps() int { return hdfs.SplitsFor(j.InputMB, j.BlockSizeMB) }

// SlowStartThreshold returns the completed-maps fraction after which reduce
// containers are requested; 0 means "no slow start" (wait for all maps).
func (j Job) SlowStartThreshold() float64 {
	if !j.SlowStart {
		return 1.0
	}
	if j.SlowStartFraction > 0 {
		return j.SlowStartFraction
	}
	return 0.05
}

// SplitMB returns the size of split i (the last split may be short).
func (j Job) SplitMB(i int) float64 {
	full := int(j.InputMB / j.BlockSizeMB)
	if i < full {
		return j.BlockSizeMB
	}
	rem := j.InputMB - float64(full)*j.BlockSizeMB
	if rem > 1e-9 {
		return rem
	}
	return j.BlockSizeMB
}

// MapOutputMB is the total intermediate data produced by all maps.
func (j Job) MapOutputMB() float64 { return j.InputMB * j.Profile.MapOutputRatio }

// ReduceInputMB is the intermediate data received by one reducer, assuming a
// uniform partitioner.
func (j Job) ReduceInputMB() float64 { return j.MapOutputMB() / float64(j.NumReduces) }

// Demands groups the service demand of a task at the model's service
// centers: node CPU, node disk and the shared cluster network. The paper's
// "CPU&Memory" center corresponds to CPU+Disk here (Table 2 lists both
// cpuPerNode and diskPerNode as configuration inputs).
type Demands struct {
	CPU     float64 // seconds of single-core processor work
	Disk    float64 // seconds of local disk I/O at nominal bandwidth
	Network float64 // seconds of cluster-network transfer at nominal bandwidth
}

// MapDemands returns the service demands of one map task over a split of
// splitMB, for hardware with the given disk bandwidth.
func (j Job) MapDemands(splitMB, diskMBps float64) Demands {
	p := j.Profile
	out := splitMB * p.MapOutputRatio
	cpu := splitMB*p.MapCPUPerMB + out*(p.CollectCPUPerMB+p.SortCPUPerMB+p.MergeCPUPerMB)
	disk := splitMB/diskMBps + out*p.SpillPasses/diskMBps
	return Demands{CPU: cpu + p.ContainerStartup, Disk: disk}
}

// ShuffleSortDemands returns the service demands of the shuffle-sort subtask
// of one reducer: copying its partition from every map output over the
// network, plus partial-sort CPU (the paper groups each shuffle+partial sort
// pair into a single "shuffle-sort" subtask).
func (j Job) ShuffleSortDemands(netMBps, diskMBps float64) Demands {
	in := j.ReduceInputMB()
	cpu := in * (j.Profile.ShuffleCPUPerMB + j.Profile.SortCPUPerMB)
	disk := in / diskMBps // materialize shuffled segments locally
	return Demands{
		CPU:     cpu + j.Profile.ContainerStartup,
		Disk:    disk,
		Network: in / netMBps,
	}
}

// MergeDemands returns the service demands of the merge subtask of one
// reducer: the final sort, the reduce function and the output write (the
// paper groups final sort + reduce function into one "merge" subtask; we
// include the HDFS write).
func (j Job) MergeDemands(diskMBps float64) Demands {
	in := j.ReduceInputMB()
	outMB := in * j.Profile.OutputRatio
	cpu := in*(j.Profile.RSortCPUPerMB+j.Profile.ReduceCPUPerMB) + outMB*0.001
	disk := (in + outMB) / diskMBps
	return Demands{CPU: cpu, Disk: disk}
}
