package trace

import (
	"errors"
	"fmt"
	"sort"

	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/stats"
	"hadoop2perf/internal/timeline"
)

// Fitting defaults and bounds.
const (
	// MaxTrimFraction bounds FitOptions.TrimFraction: trimming more than a
	// quarter of each tail no longer estimates the central tendency.
	MaxTrimFraction = 0.25
	// DefaultMinSamples is the per-class sample floor when
	// FitOptions.MinSamples is zero.
	DefaultMinSamples = 1
)

// FitOptions tunes how Fit turns raw trace samples into model statistics.
// The zero value fits every sample as-is.
type FitOptions struct {
	// TrimFraction drops this fraction of samples from each tail of the
	// per-class duration distribution before computing moments — straggler
	// and outlier rejection for traces gathered on busy clusters. A task's
	// demand samples are trimmed together with its duration so the fitted
	// demands describe the same population. 0 keeps everything; values above
	// MaxTrimFraction are rejected.
	TrimFraction float64
	// MinSamples is the minimum per-class sample count *after* trimming;
	// classes observed with fewer samples fail the fit rather than seed the
	// model from noise (default DefaultMinSamples).
	MinSamples int
	// CVFloor floors each class's fitted coefficient of variation. Traces of
	// a few near-identical executions under-disperse; a floor keeps the
	// estimators' variability terms alive (0 keeps the observed CV). Values
	// above MaxCVFloor are rejected.
	CVFloor float64
}

// MaxCVFloor bounds FitOptions.CVFloor. The floor only lifts
// under-dispersed classes, so it needs no range beyond a few units. Both
// tree estimators answer finite at 10, while a floor near 1e10 leaves the
// Tripathi estimator no finite hyperexponential fit and one near 1e150
// overflows the fork/join estimate.
const MaxCVFloor = 10

func (o *FitOptions) validate() error {
	if o.TrimFraction < 0 || o.TrimFraction > MaxTrimFraction {
		return fmt.Errorf("trace: trim fraction %v outside [0, %v]", o.TrimFraction, MaxTrimFraction)
	}
	if o.MinSamples < 0 {
		return fmt.Errorf("trace: negative min samples %d", o.MinSamples)
	}
	if o.MinSamples == 0 {
		o.MinSamples = DefaultMinSamples
	}
	if !(o.CVFloor >= 0 && o.CVFloor <= MaxCVFloor) {
		return fmt.Errorf("trace: CV floor %v outside [0, %v]", o.CVFloor, MaxCVFloor)
	}
	return nil
}

// FittedClass is one task class's fitted statistics plus fit provenance.
type FittedClass struct {
	// Stats is the model initialization payload for this class.
	Stats core.ClassStats `json:"stats"`
	// Samples counts the trace records the statistics were computed from
	// (after trimming); Trimmed counts the records dropped as outliers.
	Samples int `json:"samples"`
	Trimmed int `json:"trimmed"` // see Samples
}

// FitResult is a fitted per-class job profile ready to seed the analytic
// model: assign History to core.Config.History to use the trace as the
// §4.2.1 first-approach initialization instead of the Herodotou static model.
type FitResult struct {
	// History maps each observed task class to its fitted statistics, in the
	// exact shape core.Config.History consumes. Classes absent from the trace
	// are absent from the map; the model falls back to its static
	// initialization for them.
	History map[timeline.Class]core.ClassStats
	// Classes carries the per-class provenance (sample counts, trimming)
	// behind History.
	Classes map[timeline.Class]FittedClass
	// Jobs and Tasks count the trace records consumed by the fit.
	Jobs  int
	Tasks int // see Jobs
}

// classOf maps a trace task class to the model's timeline class.
func classOf(c mrsim.TaskClass) (timeline.Class, bool) {
	switch c {
	case mrsim.ClassMap:
		return timeline.ClassMap, true
	case mrsim.ClassShuffleSort:
		return timeline.ClassShuffleSort, true
	case mrsim.ClassMerge:
		return timeline.ClassMerge, true
	}
	return 0, false
}

// taskClassOf is the inverse of classOf (total: timeline has exactly the
// three trace classes).
func taskClassOf(c timeline.Class) mrsim.TaskClass {
	switch c {
	case timeline.ClassShuffleSort:
		return mrsim.ClassShuffleSort
	case timeline.ClassMerge:
		return mrsim.ClassMerge
	default:
		return mrsim.ClassMap
	}
}

// classSamples accumulates one class's raw samples, kept index-aligned so
// trimming by duration rank drops each outlier task's demand samples too.
type classSamples struct {
	durations []float64
	cpu       []float64
	disk      []float64
	network   []float64
}

// Fit distills a trace into the per-class statistics that initialize the
// analytic model (§4.2.1, first approach): mean response, coefficient of
// variation and mean service demands at the CPU, disk and network centers
// for every task class observed in the trace.
//
// Fit is the bridge the prediction service's /v1/calibrate endpoint and the
// mrpredict -trace flag ride: parse a trace with Read, fit it, and hand
// FitResult.History to core.Config.
func Fit(res mrsim.Result, opts FitOptions) (FitResult, error) {
	if err := opts.validate(); err != nil {
		return FitResult{}, err
	}
	if len(res.Jobs) == 0 {
		return FitResult{}, errors.New("trace: empty result")
	}
	byClass := map[timeline.Class]*classSamples{}
	tasks := 0
	for _, j := range res.Jobs {
		for _, t := range j.Tasks {
			cls, ok := classOf(t.Class)
			if !ok {
				return FitResult{}, fmt.Errorf("trace: job %d task %d has unknown class %q", j.JobID, t.TaskID, t.Class)
			}
			cs := byClass[cls]
			if cs == nil {
				cs = &classSamples{}
				byClass[cls] = cs
			}
			cs.durations = append(cs.durations, t.Duration())
			cs.cpu = append(cs.cpu, t.CPU)
			cs.disk = append(cs.disk, t.Disk)
			cs.network = append(cs.network, t.Network)
			tasks++
		}
	}
	if tasks == 0 {
		return FitResult{}, errors.New("trace: no task records to fit")
	}
	out := FitResult{
		History: make(map[timeline.Class]core.ClassStats, len(byClass)),
		Classes: make(map[timeline.Class]FittedClass, len(byClass)),
		Jobs:    len(res.Jobs),
		Tasks:   tasks,
	}
	for cls, cs := range byClass {
		fc, err := fitClass(cs, opts)
		if err != nil {
			return FitResult{}, fmt.Errorf("trace: class %s: %w", cls, err)
		}
		out.History[cls] = fc.Stats
		out.Classes[cls] = fc
	}
	return out, nil
}

// fitClass computes one class's trimmed statistics. Samples are ranked by
// duration; the trim drops whole tasks (duration and demands together) from
// both tails so the fitted demands describe the kept population.
func fitClass(cs *classSamples, opts FitOptions) (FittedClass, error) {
	n := len(cs.durations)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cs.durations[order[a]] < cs.durations[order[b]] })
	drop := int(opts.TrimFraction * float64(n))
	kept := order[drop : n-drop]
	if len(kept) < opts.MinSamples {
		return FittedClass{}, fmt.Errorf("%d samples after trimming %d of %d, need at least %d",
			len(kept), n-len(kept), n, opts.MinSamples)
	}
	pick := func(src []float64) []float64 {
		out := make([]float64, len(kept))
		for i, idx := range kept {
			out[i] = src[idx]
		}
		return out
	}
	durs := pick(cs.durations)
	cv := stats.CV(durs)
	if cv < opts.CVFloor {
		cv = opts.CVFloor
	}
	st := core.ClassStats{
		MeanResponse: stats.Mean(durs),
		CV:           cv,
		MeanCPU:      stats.Mean(pick(cs.cpu)),
		MeanDisk:     stats.Mean(pick(cs.disk)),
		MeanNetwork:  stats.Mean(pick(cs.network)),
	}
	// Finite records can still sum past the float range, and tasks that all
	// took no time leave a zero mean response, which the model reads as
	// "derive from demands": neither calibrates anything.
	if !finite(st.MeanResponse, st.CV, st.MeanCPU, st.MeanDisk, st.MeanNetwork) {
		return FittedClass{}, errors.New("fitted statistics overflow the float range")
	}
	if st.MeanResponse <= 0 {
		return FittedClass{}, fmt.Errorf("%d kept tasks have zero mean duration", len(kept))
	}
	return FittedClass{Stats: st, Samples: len(kept), Trimmed: n - len(kept)}, nil
}
