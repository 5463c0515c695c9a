// Package admit is the overload-resilience layer of the serving path:
// a cost-classed admission controller that owns the worker pool's
// concurrency budget and sheds excess load *before* it consumes resources,
// plus a consecutive-timeout circuit breaker (breaker.go) that lets
// degraded fallbacks take over when a backend stops answering in time.
//
// The controller is the one overload gate. Admit prices a request on
// arrival: every admitted request carries a cost (cheap model solves vs.
// expensive simulations and plan sweeps), the total outstanding cost is
// bounded, and an exponentially weighted estimate of per-cost-unit service
// time prices the queue, so a request whose estimated wait already exceeds
// its remaining deadline is rejected in microseconds with a structured,
// Retry-After-carrying error instead of timing out a worker slot later.
// Acquire and Release then hand out the Capacity worker slots to admitted
// work that actually computes; a caller that never computes (a cache hit)
// never takes one. Slot waits block on a channel, which keeps FIFO-ish
// fairness and context cancellation. Both shed paths answer fast by
// construction — no lock is held across any computation.
//
// The package is dependency-free and safe for concurrent use.
package admit

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Class buckets requests by their expected resource cost. The admission
// bound and wait estimates are denominated in cost units, so one expensive
// request occupies the queue like several cheap ones.
type Class int

// The cost classes, cheapest first.
const (
	// ClassCheap covers requests dominated by one analytic model solve
	// (predict): milliseconds of CPU.
	ClassCheap Class = iota
	// ClassExpensive covers requests that run the discrete-event simulator
	// (simulate, compare) or fan out over a plan grid: seconds of CPU.
	ClassExpensive
	numClasses
)

// String returns the class's stable metric-label name.
func (c Class) String() string {
	switch c {
	case ClassCheap:
		return "cheap"
	case ClassExpensive:
		return "expensive"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Default controller tuning.
const (
	// DefaultCheapCost and DefaultExpensiveCost are the fixed per-class
	// cost units. The ratio (not the absolute values) is what matters: one
	// simulation, plan sweep or comparison displaces eight model solves.
	DefaultCheapCost     = 1
	DefaultExpensiveCost = 8
	// DefaultQueueFactor sizes the default admission bound: MaxQueueCost =
	// DefaultQueueFactor × Capacity cost units — deep enough that bursts
	// degrade into queueing (the worker pool's job), shallow enough that a
	// sustained overload sheds instead of growing latency without bound.
	DefaultQueueFactor = 64
	// ewmaAlpha is the weight of the newest observation in the per-unit
	// service-time estimate.
	ewmaAlpha = 0.2
	// minRetryAfter and maxRetryAfter clamp the Retry-After hint carried by
	// shed errors.
	minRetryAfter = time.Second
	maxRetryAfter = 30 * time.Second
)

// Shed reasons reported by ShedError and the controller's counters.
const (
	// ReasonQueueFull: the bounded queue's outstanding cost was at capacity.
	ReasonQueueFull = "queue_full"
	// ReasonDeadline: the estimated queue wait already exceeded the
	// request's remaining deadline, so queueing could only waste a slot.
	ReasonDeadline = "deadline"
	// ReasonDraining: the process is shutting down and admits no new work.
	ReasonDraining = "draining"
)

// ShedError is the structured rejection of an admission decision. It is a
// client-retryable condition, not a fault: transports map it to HTTP 503
// with the RetryAfter hint.
type ShedError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfter estimates when capacity will be available again.
	RetryAfter time.Duration
}

// Error renders the shed reason and retry hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission rejected (%s); retry after %s", e.Reason, e.RetryAfter)
}

// IsShed reports whether err is an admission rejection, returning it.
func IsShed(err error) (*ShedError, bool) {
	var se *ShedError
	ok := errorsAs(err, &se)
	return se, ok
}

// errorsAs is errors.As without the reflective allocation for the one
// pointer shape the package produces.
func errorsAs(err error, target **ShedError) bool {
	for err != nil {
		if se, ok := err.(*ShedError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Config tunes a Controller.
type Config struct {
	// Capacity is the worker-pool size (required, > 0): the number of
	// slots Acquire hands out and the divisor of queue-wait estimates.
	Capacity int
	// MaxQueueCost bounds the total outstanding (queued + executing) cost
	// units; 0 defaults to DefaultQueueFactor × Capacity.
	MaxQueueCost int
	// Now is an injectable clock for tests (nil = time.Now).
	Now func() time.Time
}

// classCost is the cost in units of one request of each class.
var classCost = [numClasses]int64{
	ClassCheap:     DefaultCheapCost,
	ClassExpensive: DefaultExpensiveCost,
}

// Controller makes admission decisions for a worker pool and owns its
// slots. Create one with NewController; all methods are safe for
// concurrent use.
type Controller struct {
	capacity  int
	maxCost   int64
	slots     chan struct{} // one token per busy worker
	now       func() time.Time
	draining  atomic.Bool
	queued    atomic.Int64 // outstanding cost units (queued + executing)
	unitEWMA  atomic.Uint64
	admitted  [numClasses]atomic.Int64
	shedQueue atomic.Int64
	shedDead  atomic.Int64
	shedDrain atomic.Int64
}

// NewController builds a Controller over a pool of capacity workers.
func NewController(cfg Config) *Controller {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.MaxQueueCost <= 0 {
		cfg.MaxQueueCost = DefaultQueueFactor * cfg.Capacity
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{
		capacity: cfg.Capacity,
		maxCost:  int64(cfg.MaxQueueCost),
		slots:    make(chan struct{}, cfg.Capacity),
		now:      cfg.Now,
	}
}

// Ticket is one admitted request's reservation. Release it exactly once
// when the request finishes (success or failure): Done returns the cost to
// the queue bound and feeds the observed service time into the wait
// estimator.
type Ticket struct {
	c       *Controller
	class   Class
	cost    int64
	start   time.Time
	settled atomic.Bool
}

// Admit decides whether one request of the given class may enter the
// system. The decision is immediate — never blocking — so shed responses
// cost microseconds. ctx's deadline, when set, activates deadline-aware
// shedding: a request whose estimated queue wait exceeds its remaining
// budget is rejected now rather than timed out later.
func (c *Controller) Admit(ctx context.Context, class Class) (*Ticket, error) {
	if class < 0 || class >= numClasses {
		class = ClassExpensive
	}
	cost := classCost[class]
	if c.draining.Load() {
		c.shedDrain.Add(1)
		return nil, &ShedError{Reason: ReasonDraining, RetryAfter: maxRetryAfter}
	}
	// Reserve optimistically, back out on rejection: the race window of a
	// check-then-add would admit unbounded cost under a stampede.
	outstanding := c.queued.Add(cost)
	if outstanding > c.maxCost {
		c.queued.Add(-cost)
		c.shedQueue.Add(1)
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: c.retryAfter(outstanding)}
	}
	if dl, ok := ctx.Deadline(); ok {
		// Wait behind everything already outstanding (excluding what the
		// pool is executing right now, approximated by one capacity's worth).
		wait := c.estWait(outstanding - cost)
		// Only shed on positive evidence (wait > 0): a cold-start estimate
		// of zero or an already-expired deadline is the downstream ctx
		// check's problem, not admission's.
		if remaining := dl.Sub(c.now()); wait > 0 && wait > remaining {
			c.queued.Add(-cost)
			c.shedDead.Add(1)
			return nil, &ShedError{Reason: ReasonDeadline, RetryAfter: clampRetry(wait)}
		}
	}
	c.admitted[class].Add(1)
	return &Ticket{c: c, class: class, cost: cost, start: c.now()}, nil
}

// Done settles the ticket: the cost returns to the bound and the observed
// service time updates the per-unit wait estimate. Safe to call more than
// once; only the first call settles.
func (t *Ticket) Done() {
	if t == nil || !t.settled.CompareAndSwap(false, true) {
		return
	}
	t.c.queued.Add(-t.cost)
	elapsed := t.c.now().Sub(t.start).Seconds()
	if elapsed > 0 && t.cost > 0 {
		t.c.observeUnitSeconds(elapsed / float64(t.cost))
	}
}

// Acquire takes one of the Capacity worker slots, blocking until one frees
// or ctx ends (then it returns ctx.Err()), and reports how long it waited:
// zero, without reading the clock, when a slot was free. A free slot is
// taken even under an ended ctx. Every successful Acquire must be paired
// with one Release. Admission and slots are separate steps so a request
// that needs no computation (a cache hit) never waits for a slot.
func (c *Controller) Acquire(ctx context.Context) (time.Duration, error) {
	select {
	case c.slots <- struct{}{}:
		return 0, nil
	default:
	}
	start := c.now()
	select {
	case c.slots <- struct{}{}:
		return c.now().Sub(start), nil
	case <-ctx.Done():
		return c.now().Sub(start), ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (c *Controller) Release() { <-c.slots }

// estWait estimates how long a newly queued request waits for a worker:
// the outstanding cost ahead of it, beyond what the pool is already
// executing, divided across the workers at the observed per-unit service
// time. With no history (cold start) the estimate is zero — the controller
// only sheds on deadlines once it has evidence.
func (c *Controller) estWait(aheadCost int64) time.Duration {
	unit := c.unitSeconds()
	if unit <= 0 {
		return 0
	}
	executing := int64(c.capacity) // ≈ cost the pool is already working on
	waitingCost := aheadCost - executing
	if waitingCost <= 0 {
		return 0
	}
	sec := float64(waitingCost) * unit / float64(c.capacity)
	if sec > math.MaxInt32 {
		sec = math.MaxInt32
	}
	return time.Duration(sec * float64(time.Second))
}

// retryAfter hints when a queue-full client should come back: the time to
// drain half the outstanding queue, clamped to [1s, 30s].
func (c *Controller) retryAfter(outstanding int64) time.Duration {
	return clampRetry(c.estWait(outstanding / 2))
}

func clampRetry(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// observeUnitSeconds folds one observed per-cost-unit service time into
// the EWMA (atomic CAS loop; contention is one CAS retry per collision).
func (c *Controller) observeUnitSeconds(v float64) {
	for {
		old := c.unitEWMA.Load()
		cur := math.Float64frombits(old)
		next := v
		if cur > 0 {
			next = (1-ewmaAlpha)*cur + ewmaAlpha*v
		}
		if c.unitEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// unitSeconds returns the current per-cost-unit service-time estimate.
func (c *Controller) unitSeconds() float64 {
	return math.Float64frombits(c.unitEWMA.Load())
}

// StartDrain flips the controller into draining: every subsequent Admit is
// shed with ReasonDraining. In-flight tickets are unaffected.
func (c *Controller) StartDrain() { c.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (c *Controller) Draining() bool { return c.draining.Load() }

// Overloaded reports whether the outstanding cost has reached the
// admission bound — the readiness signal load balancers should stop
// routing on.
func (c *Controller) Overloaded() bool { return c.queued.Load() >= c.maxCost }

// Snapshot is a point-in-time copy of the controller's counters.
type Snapshot struct {
	// QueuedCost is the outstanding (queued + executing) cost units.
	QueuedCost int64 `json:"queuedCost"`
	// MaxQueueCost is the admission bound in cost units.
	MaxQueueCost int64 `json:"maxQueueCost"`
	// EstWaitSeconds prices the current queue at the observed per-unit
	// service time.
	EstWaitSeconds float64 `json:"estWaitSeconds"`
	// AdmittedCheap / AdmittedExpensive count admissions per class.
	AdmittedCheap     int64 `json:"admittedCheap"`
	AdmittedExpensive int64 `json:"admittedExpensive"` // see AdmittedCheap
	// ShedQueueFull, ShedDeadline and ShedDraining count rejections per
	// reason.
	ShedQueueFull int64 `json:"shedQueueFull"`
	ShedDeadline  int64 `json:"shedDeadline"` // see ShedQueueFull
	ShedDraining  int64 `json:"shedDraining"` // see ShedQueueFull
}

// Snapshot returns the controller's current counters.
func (c *Controller) Snapshot() Snapshot {
	queued := c.queued.Load()
	return Snapshot{
		QueuedCost:        queued,
		MaxQueueCost:      c.maxCost,
		EstWaitSeconds:    c.estWait(queued).Seconds(),
		AdmittedCheap:     c.admitted[ClassCheap].Load(),
		AdmittedExpensive: c.admitted[ClassExpensive].Load(),
		ShedQueueFull:     c.shedQueue.Load(),
		ShedDeadline:      c.shedDead.Load(),
		ShedDraining:      c.shedDrain.Load(),
	}
}
