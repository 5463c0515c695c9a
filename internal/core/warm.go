package core

import (
	"context"
	"math"

	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/timeline"
)

// This file makes convergence state a first-class, reusable artifact: a
// Predictor retains a small pool of converged MVA residence matrices, and
// PredictWarm seeds each new evaluation's inner fixed point from the
// nearest already-solved neighbor — adjacent node counts and class mixes of
// one sweep re-solve the overlap step in a handful of sweeps instead of
// dozens. The warm path also chains the inner state across outer iterations
// and applies safeguarded Aitken acceleration to the inner loop; outer
// Aitken is the separate Config.AccelerateOuter opt-in (outerAccel below).
//
// Correctness contract: the inner overlap fixed point is a smooth
// contraction solved to 1e-10, so the warm outer trajectory tracks the
// cold one up to inner-tolerance noise and the result matches cold Predict
// within 1e-6 relative — property-tested over randomized flat and
// multi-class specs (warm_test.go). The outer class-response state is
// deliberately NOT seeded across configurations: the timeline's discrete
// placement gives the outer iteration multiple self-consistent basins, and
// cross-config response seeding was observed to land in the neighbor's
// basin, tens of percent off the cold answer. Config.ColdStart opts any
// call back into the bit-exact cold path.

// warmPoolSize bounds the retained solutions per Predictor: a planner axis
// walk only ever needs its recent neighbors, and each entry pins an n×nc
// residence copy.
const warmPoolSize = 4

// warmEntry is one retained converged solution.
type warmEntry struct {
	sig   uint64    // job/hardware/history signature (warmSig)
	nodes int       // total cluster size (the distance axis)
	res   []float64 // flat n×nc copy of the final residence matrix
	n, nc int       // residence shape (0 when not retained)
	tick  int64     // LRU clock
}

// warmPool is the Predictor's bounded solution store.
type warmPool struct {
	entries []warmEntry
	tick    int64
}

// nearest returns the retained solution with a matching signature closest
// in total node count (ties to the most recently used), or nil.
func (w *warmPool) nearest(sig uint64, nodes int) *warmEntry {
	best, bestDist := -1, 0
	for i := range w.entries {
		e := &w.entries[i]
		if e.sig != sig {
			continue
		}
		d := e.nodes - nodes
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist || (d == bestDist && e.tick > w.entries[best].tick) {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return nil
	}
	w.tick++
	w.entries[best].tick = w.tick
	return &w.entries[best]
}

// record stores a converged solution, replacing the same coordinate if
// present, else filling a free slot, else evicting the least recently used.
// The residence rows are copied; entry capacity is recycled.
func (w *warmPool) record(sig uint64, nodes int, residence [][]float64) {
	w.tick++
	slot := -1
	for i := range w.entries {
		if w.entries[i].sig == sig && w.entries[i].nodes == nodes {
			slot = i
			break
		}
	}
	if slot < 0 {
		if len(w.entries) < warmPoolSize {
			w.entries = append(w.entries, warmEntry{})
			slot = len(w.entries) - 1
		} else {
			slot = 0
			for i := range w.entries {
				if w.entries[i].tick < w.entries[slot].tick {
					slot = i
				}
			}
		}
	}
	e := &w.entries[slot]
	e.sig, e.nodes, e.tick = sig, nodes, w.tick
	e.n, e.nc = 0, 0
	e.res = e.res[:0]
	if len(residence) == 0 {
		return
	}
	nc := len(residence[0])
	if cap(e.res) < len(residence)*nc {
		e.res = make([]float64, 0, len(residence)*nc)
	}
	for _, row := range residence {
		if len(row) != nc {
			e.res = e.res[:0]
			return
		}
		e.res = append(e.res, row...)
	}
	e.n, e.nc = len(residence), nc
}

// warmResidenceRows views a pooled flat residence matrix as solver rows,
// reusing the Predictor's row scratch. Returns nil when the pooled shape
// does not match the current prediction's task × center layout (the seed's
// class responses still apply; only the inner matrix is skipped).
func (p *Predictor) warmResidenceRows(seed *warmEntry, n, nc int) [][]float64 {
	if seed.n != n || seed.nc != nc || len(seed.res) != n*nc {
		return nil
	}
	if cap(p.seedRows) < n {
		p.seedRows = make([][]float64, n)
	}
	p.seedRows = p.seedRows[:n]
	for i := 0; i < n; i++ {
		p.seedRows[i] = seed.res[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return p.seedRows
}

// PredictWarm runs the model with its inner MVA fixed point seeded from
// the nearest already-solved neighbor retained on this Predictor, chained
// across outer iterations and accelerated with safeguarded Aitken
// extrapolation. Converged results are recorded back into the pool, so a
// sweep of adjacent configurations — PredictBatch, the planner's axis walk
// — warm-starts itself point to point. Results match the cold Predict
// within 1e-6 relative (property-tested, warm_test.go); Config.ColdStart
// forces the bit-exact cold path instead.
func (p *Predictor) PredictWarm(cfg Config) (Prediction, error) {
	return p.predictWarm(nil, cfg)
}

// PredictWarmContext is PredictWarm honoring ctx between outer iterations
// (see PredictContext).
func (p *Predictor) PredictWarmContext(ctx context.Context, cfg Config) (Prediction, error) {
	return p.predictWarm(ctx, cfg)
}

func (p *Predictor) predictWarm(ctx context.Context, cfg Config) (Prediction, error) {
	if cfg.ColdStart {
		return p.predictOne(ctx, cfg, nil, false)
	}
	sig := warmSig(&cfg)
	nodes := cfg.Spec.TotalNodes()
	seed := p.warm.nearest(sig, nodes)
	pred, err := p.predictOne(ctx, cfg, seed, true)
	if err != nil {
		return Prediction{}, err
	}
	if pred.Converged {
		p.warm.record(sig, nodes, p.lastStep.Residence)
	}
	return pred, nil
}

// outerAccel applies the shared safeguarded Δ² accelerator (mva.Aitken —
// one implementation, one set of safeguards for every fixed-point loop in
// the model) to the outer damped class-response iteration: two plain
// damped updates are recorded, and on the third each class's geometric
// tail is extrapolated wherever the safeguards hold; classes failing any
// check keep the plain damped value. Convergence is never declared on the
// iteration consuming an extrapolated state (justExtrapolated).
type outerAccel struct {
	acc     mva.Aitken
	buf     [numClasses]float64
	started bool
	// justExtrapolated marks that the responses feeding the next iteration
	// were extrapolated rather than plainly damped.
	justExtrapolated bool
}

// observe feeds the current class responses; every third call extrapolates
// them in place.
func (a *outerAccel) observe(classes map[timeline.Class]*classData) {
	if !a.started {
		a.acc.Init(numClasses)
		a.started = true
	}
	for cls, cd := range classes {
		a.buf[cls] = cd.response
	}
	// Floor just above zero: a class response must stay strictly positive.
	a.justExtrapolated = a.acc.Observe(a.buf[:], func(int) float64 { return math.SmallestNonzeroFloat64 })
	if a.justExtrapolated {
		for cls, cd := range classes {
			cd.response = a.buf[cls]
		}
	}
}

// warmSig hashes everything that shapes a prediction's fixed point except
// the cluster size: job workload, concurrency, estimator, history
// initialization and per-class hardware (class counts and the flat node
// count deliberately excluded — they are the axis warm entries are *near*
// each other on). Two configs with equal signatures solve the same family
// of fixed points, so one's converged state is a valid seed for the other.
func warmSig(cfg *Config) uint64 {
	h := newSigHasher()
	j := &cfg.Job
	h.f64(j.InputMB)
	h.f64(j.BlockSizeMB)
	h.i(j.NumReduces)
	h.b(j.SlowStart)
	h.f64(j.SlowStartFraction)
	pr := &j.Profile
	h.str(pr.Name)
	for _, v := range []float64{
		pr.MapCPUPerMB, pr.CollectCPUPerMB, pr.SortCPUPerMB, pr.MergeCPUPerMB,
		pr.ShuffleCPUPerMB, pr.ReduceCPUPerMB, pr.RSortCPUPerMB,
		pr.MapOutputRatio, pr.OutputRatio, pr.SpillPasses, pr.TaskJitterCV,
		pr.ContainerStartup, pr.AMStartup,
	} {
		h.f64(v)
	}
	n := cfg.NumJobs
	if n <= 0 {
		n = 1
	}
	h.i(n)
	h.i(int(cfg.Estimator))
	for _, cls := range [...]timeline.Class{timeline.ClassMap, timeline.ClassShuffleSort, timeline.ClassMerge} {
		cs, ok := cfg.History[cls]
		h.b(ok)
		if !ok {
			continue
		}
		h.f64(cs.MeanCPU)
		h.f64(cs.MeanDisk)
		h.f64(cs.MeanNetwork)
		h.f64(cs.MeanResponse)
		h.f64(cs.CV)
	}
	h.i(cfg.Spec.MapContainer.MemoryMB)
	h.i(cfg.Spec.MapContainer.VCores)
	h.i(cfg.Spec.ReduceContainer.MemoryMB)
	h.i(cfg.Spec.ReduceContainer.VCores)
	classes := cfg.Spec.ClassView()
	h.i(len(classes))
	for _, c := range classes {
		h.str(c.Name)
		h.i(c.Capacity.MemoryMB)
		h.i(c.Capacity.VCores)
		h.i(c.CPUs)
		h.i(c.Disks)
		h.f64(c.DiskMBps)
		h.f64(c.NetworkMBps)
		h.f64(c.Speed)
		h.b(c.Preemptible)
		h.f64(c.RevocationRate)
	}
	h.b(cfg.Faults != nil)
	if f := cfg.Faults; f != nil {
		h.f64(f.NodeMTTFSec)
		h.f64(f.RepairDelaySec)
		h.i(f.MaxNodeFailures)
		h.f64(f.StragglerProb)
		h.f64(f.StragglerAlpha)
		h.b(f.Speculation)
		h.f64(f.SpeculationLateness)
	}
	return h.sum
}

// sigHasher is a minimal FNV-1a accumulator for warm signatures.
type sigHasher struct{ sum uint64 }

func newSigHasher() sigHasher { return sigHasher{sum: 14695981039346656037} }

func (h *sigHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= v & 0xff
		h.sum *= 1099511628211
		v >>= 8
	}
}

func (h *sigHasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *sigHasher) i(v int)       { h.u64(uint64(int64(v))) }

func (h *sigHasher) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *sigHasher) str(s string) {
	h.i(len(s))
	for i := 0; i < len(s); i++ {
		h.sum ^= uint64(s[i])
		h.sum *= 1099511628211
	}
}
