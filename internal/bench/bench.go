// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) against the simulator substrate and
// formats the rows the paper reports. cmd/experiments and the root
// bench_test.go are thin wrappers over this package.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/hdfs"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/stats"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// Reps is the number of seeded simulator repetitions per point (the paper
// repeats each experiment 5 times and takes the median).
const Reps = 5

// BaseSeed keeps every experiment reproducible.
const BaseSeed = 1

// GB in MB.
const GB = 1024

// Point is one x-position of a figure: a simulated measurement and the two
// model estimates.
type Point struct {
	// X is the swept parameter (number of nodes, or number of jobs).
	X int
	// Sim is the median measured mean job response time (seconds).
	Sim float64
	// ForkJoin and Tripathi are the model estimates (seconds).
	ForkJoin float64
	Tripathi float64
}

// FJErr returns the signed relative error of the fork/join estimate.
func (p Point) FJErr() float64 { return stats.SignedRelError(p.ForkJoin, p.Sim) }

// TPErr returns the signed relative error of the Tripathi estimate.
func (p Point) TPErr() float64 { return stats.SignedRelError(p.Tripathi, p.Sim) }

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID    string // e.g. "fig10"
	Title string // e.g. "Input: 1GB; #jobs: 1"
	XName string // "nodes" or "jobs"
	// Config
	InputMB     float64
	BlockSizeMB float64
	NumJobs     int
	Points      []Point
}

// Spec describes one figure to run.
type Spec struct {
	ID, Title   string
	XName       string
	InputMB     float64
	BlockSizeMB float64
	// Sweep: either Nodes varies (Jobs fixed) or Jobs varies (Nodes fixed).
	Nodes []int
	Jobs  []int
	FixedNodes,
	FixedJobs int
}

// FigureSpecs enumerates every response-time figure of the paper (§5.2).
func FigureSpecs() []Spec {
	nodes := []int{4, 6, 8}
	return []Spec{
		{ID: "fig10", Title: "Input: 1GB; #jobs: 1", XName: "nodes", InputMB: 1 * GB, BlockSizeMB: 128, Nodes: nodes, FixedJobs: 1},
		{ID: "fig11", Title: "Input: 1GB; #jobs: 4", XName: "nodes", InputMB: 1 * GB, BlockSizeMB: 128, Nodes: nodes, FixedJobs: 4},
		{ID: "fig12", Title: "Input: 5GB; #jobs: 1", XName: "nodes", InputMB: 5 * GB, BlockSizeMB: 128, Nodes: nodes, FixedJobs: 1},
		{ID: "fig13", Title: "Input: 5GB; #jobs: 4", XName: "nodes", InputMB: 5 * GB, BlockSizeMB: 128, Nodes: nodes, FixedJobs: 4},
		{ID: "fig14", Title: "#Nodes: 4; Input: 5GB", XName: "jobs", InputMB: 5 * GB, BlockSizeMB: 128, Jobs: []int{1, 2, 3, 4}, FixedNodes: 4},
		{ID: "fig15", Title: "Block: 64MB; Input: 5GB; #jobs: 1", XName: "nodes", InputMB: 5 * GB, BlockSizeMB: 64, Nodes: nodes, FixedJobs: 1},
	}
}

// JobFor builds the evaluation job for a given cluster size: WordCount with
// one reducer per node (reducer count scaled to the cluster, the common
// Hadoop sizing rule).
func JobFor(inputMB, blockSizeMB float64, numNodes int) (workload.Job, error) {
	return workload.NewJob(0, inputMB, blockSizeMB, numNodes, workload.WordCount())
}

// RunPoint produces one figure point: median-of-Reps simulation plus both
// model estimates (see Compare).
func RunPoint(numNodes, numJobs int, inputMB, blockSizeMB float64) (Point, error) {
	job, err := JobFor(inputMB, blockSizeMB, numNodes)
	if err != nil {
		return Point{}, err
	}
	return Compare(cluster.Default(numNodes), job, numJobs, BaseSeed, Reps)
}

// Compare measures numJobs concurrent copies of job on spec (FIFO for one
// job, fair sharing for more) as the median of reps seeded simulations, and
// estimates it with both model estimators; the returned Point has X unset.
// The two are independent, so they run side by side: the joint fork/join
// and Tripathi solve (core.PredictEach) on its own goroutine, the
// simulator seeds on the caller's. Both finish before Compare returns, on
// error too, and a simulator error takes precedence. Each side is
// deterministic on its own, so the result does not depend on GOMAXPROCS.
func Compare(spec cluster.Spec, job workload.Job, numJobs int, seed int64, reps int) (Point, error) {
	type solved struct {
		preds []core.Prediction
		err   error
	}
	model := make(chan solved, 1)
	go func() {
		preds, err := core.PredictEach(context.Background(),
			core.Config{Spec: spec, Job: job, NumJobs: numJobs},
			core.EstimatorForkJoin, core.EstimatorTripathi)
		model <- solved{preds, err}
	}()

	jobs := make([]workload.Job, numJobs)
	for i := range jobs {
		j := job
		j.ID = i
		jobs[i] = j
	}
	pol := yarn.PolicyFIFO
	if numJobs > 1 {
		pol = yarn.PolicyFair
	}
	res, simErr := mrsim.RunMedianOfSeeds(mrsim.Config{
		Spec: spec, Jobs: jobs, Seed: seed, Scheduler: pol,
	}, reps)
	m := <-model
	if simErr != nil {
		return Point{}, simErr
	}
	if m.err != nil {
		return Point{}, m.err
	}
	return Point{Sim: res.MeanResponse(), ForkJoin: m.preds[0].ResponseTime, Tripathi: m.preds[1].ResponseTime}, nil
}

// RunFigure executes one figure spec.
func RunFigure(s Spec) (Figure, error) {
	fig := Figure{
		ID: s.ID, Title: s.Title, XName: s.XName,
		InputMB: s.InputMB, BlockSizeMB: s.BlockSizeMB, NumJobs: s.FixedJobs,
	}
	switch {
	case len(s.Nodes) > 0:
		for _, n := range s.Nodes {
			p, err := RunPoint(n, s.FixedJobs, s.InputMB, s.BlockSizeMB)
			if err != nil {
				return Figure{}, fmt.Errorf("%s nodes=%d: %w", s.ID, n, err)
			}
			p.X = n
			fig.Points = append(fig.Points, p)
		}
	case len(s.Jobs) > 0:
		for _, nj := range s.Jobs {
			p, err := RunPoint(s.FixedNodes, nj, s.InputMB, s.BlockSizeMB)
			if err != nil {
				return Figure{}, fmt.Errorf("%s jobs=%d: %w", s.ID, nj, err)
			}
			p.X = nj
			fig.Points = append(fig.Points, p)
		}
	default:
		return Figure{}, fmt.Errorf("bench: figure %s sweeps nothing", s.ID)
	}
	return fig, nil
}

// Format renders a figure as a markdown table matching the paper's series:
// HadoopSetup (the simulator), Fork/join, Tripathi.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(f.ID[:1])+f.ID[1:], f.Title)
	fmt.Fprintf(&b, "| %s | HadoopSetup (sim, s) | Fork/join (s) | err | Tripathi (s) | err |\n", f.XName)
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "| %d | %.1f | %.1f | %+.1f%% | %.1f | %+.1f%% |\n",
			p.X, p.Sim, p.ForkJoin, 100*p.FJErr(), p.Tripathi, 100*p.TPErr())
	}
	return b.String()
}

// ErrorBands aggregates the absolute error range of each estimator over a
// set of figures (the paper's §5.2 headline numbers).
type ErrorBands struct {
	FJMin, FJMax float64
	TPMin, TPMax float64
	// Overestimates counts points where each estimator exceeds the
	// measurement; Total is the number of points.
	FJOver, TPOver, Total int
}

// Bands computes error bands across figures.
func Bands(figs []Figure) ErrorBands {
	b := ErrorBands{FJMin: 1e9, TPMin: 1e9}
	for _, f := range figs {
		for _, p := range f.Points {
			fe, te := p.FJErr(), p.TPErr()
			afe, ate := abs(fe), abs(te)
			if afe < b.FJMin {
				b.FJMin = afe
			}
			if afe > b.FJMax {
				b.FJMax = afe
			}
			if ate < b.TPMin {
				b.TPMin = ate
			}
			if ate > b.TPMax {
				b.TPMax = ate
			}
			if fe > 0 {
				b.FJOver++
			}
			if te > 0 {
				b.TPOver++
			}
			b.Total++
		}
	}
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Table1 reproduces the ResourceRequest table of the paper's running example
// (n=3 nodes, m=4 maps, r=1 reduce).
func Table1() (string, error) {
	spec := cluster.Default(3)
	file, err := hdfs.Place("running-example", 4*128, 128, 3, hdfs.DefaultReplication)
	if err != nil {
		return "", err
	}
	rows := yarn.BuildRequestTable(file, 1, spec)
	return yarn.FormatRequestTable(rows), nil
}

// RunningExample reproduces Figures 6 and 7: the timeline and precedence
// tree for the n=3, m=4, r=1 example with slow start.
func RunningExample() (*timeline.Timeline, *ptree.Node, error) {
	in := timeline.Input{
		NumNodes:           3,
		MapSlotsPerNode:    1,
		ReduceSlotsPerNode: 1,
		SlowStart:          true,
	}
	for i := 0; i < 4; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 10, ShuffleDuration: 2})
	}
	in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: 0, ShuffleSortBase: 6, MergeDuration: 5})
	tl, err := timeline.Build(in)
	if err != nil {
		return nil, nil, err
	}
	tree, err := ptree.Build(tl)
	if err != nil {
		return nil, nil, err
	}
	return tl, tree, nil
}

// FormatTimeline renders a timeline as per-node lanes for display.
func FormatTimeline(tl *timeline.Timeline) string {
	byNode := map[int][]timeline.Placed{}
	for _, t := range tl.Tasks {
		byNode[t.Node] = append(byNode[t.Node], t)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "node %d:", n+1)
		tasks := byNode[n]
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].Start < tasks[j].Start })
		for _, t := range tasks {
			fmt.Fprintf(&b, "  %s%d[%.1f,%.1f]", shortClass(t.Class), t.ID, t.Start, t.End)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "border=%.1f lastMapEnd=%.1f makespan=%.1f\n", tl.Border, tl.LastMapEnd, tl.Makespan)
	return b.String()
}

func shortClass(c timeline.Class) string {
	switch c {
	case timeline.ClassMap:
		return "m"
	case timeline.ClassShuffleSort:
		return "s"
	default:
		return "g"
	}
}
