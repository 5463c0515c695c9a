// Package yarn models the Hadoop 2.x resource-management layer the paper
// analyzes in §3: a global ResourceManager with a single-queue Capacity
// scheduler (FIFO across applications), per-node resource accounting, and
// per-application container requests (ResourceRequest objects) with the
// MapReduce priorities — 20 for map containers, 10 for reduce containers —
// and node-locality preferences for maps.
//
// Container requests move through the lifecycle of Figures 2 and 3:
//
//	pending -> scheduled -> assigned -> completed
//
// pending requests have not been sent to the RM, scheduled requests are at
// the RM awaiting allocation, assigned requests hold a container, and
// completed requests have finished execution.
package yarn

import (
	"errors"
	"fmt"
	"slices"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/simevent"
)

// MapReduce AM container priorities (package org.apache.hadoop.mapreduce.
// v2.app.rm, RMContainerAllocator): higher priority requests are served
// first within an application.
const (
	PriorityMap    = 20
	PriorityReduce = 10
)

// TaskType labels what a container request is for.
type TaskType int

// Task types used by the MapReduce ApplicationMaster.
const (
	TypeMap TaskType = iota
	TypeReduce
)

func (t TaskType) String() string {
	if t == TypeMap {
		return "map"
	}
	return "reduce"
}

// State is a container-request lifecycle state (paper Figures 2 and 3).
type State int

// Lifecycle states.
const (
	StatePending State = iota
	StateScheduled
	StateAssigned
	StateCompleted
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateScheduled:
		return "scheduled"
	case StateAssigned:
		return "assigned"
	default:
		return "completed"
	}
}

// AnyNode is the locality wildcard ("*" in a ResourceRequest).
const AnyNode = -1

// Request is one ResourceRequest: a number of identical containers at a
// priority with a locality preference (Table 1 of the paper).
type Request struct {
	Priority  int
	Count     int
	Size      cluster.Resource
	Type      TaskType
	Preferred []int // preferred node IDs; empty means any node
	state     State
	app       *App
	allocated int
}

// Remaining returns how many containers are still to be allocated.
func (r *Request) Remaining() int { return r.Count - r.allocated }

// Container is an allocated logical bundle of resources bound to a node.
type Container struct {
	ID       int
	Node     int
	Size     cluster.Resource
	Priority int
	Type     TaskType
	// Local reports whether the allocation honored a node-locality preference.
	Local bool
	app   *App
	epoch int // node epoch at grant time (stale after a node loss)
}

// App is a registered YARN application (one MapReduce job's AM view of the
// RM). Allocations are delivered through the OnAllocate callback.
type App struct {
	ID int
	// OnAllocate is invoked (in event context) for each granted container.
	OnAllocate func(*Container)
	rm         *RM
	requests   []*Request
	done       bool
}

// nodeState tracks per-node available resources. down marks a lost node
// (failure injection): it receives no allocations until NodeUp. epoch counts
// failures so that containers granted before a loss cannot corrupt the
// node's accounting when released after it rejoined.
type nodeState struct {
	id        int
	available cluster.Resource
	capacity  cluster.Resource
	down      bool
	epoch     int
}

// occupancy returns the fraction of memory in use (the paper's "occupancy
// rate" used to pick the least-loaded node).
func (n *nodeState) occupancy() float64 {
	used := n.capacity.MemoryMB - n.available.MemoryMB
	return float64(used) / float64(n.capacity.MemoryMB)
}

// Policy selects how the single root queue orders applications.
type Policy int

// Scheduling policies for the root queue.
const (
	// PolicyFIFO serves applications strictly in submission order (the
	// Capacity scheduler's default FIFO ordering, paper §4.2.2).
	PolicyFIFO Policy = iota
	// PolicyFair hands out containers round-robin across applications (the
	// Capacity scheduler's fair ordering policy within a queue) so that
	// concurrent jobs progress together — the regime of the paper's
	// multi-job measurements.
	PolicyFair
)

func (p Policy) String() string {
	if p == PolicyFair {
		return "fair"
	}
	return "fifo"
}

// ParsePolicy is the inverse of String. It accepts the canonical names and
// the empty string (which maps to the FIFO default), so wire formats and
// cache keys share one stable spelling per policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo":
		return PolicyFIFO, nil
	case "fair":
		return PolicyFair, nil
	}
	return 0, fmt.Errorf("yarn: unknown scheduling policy %q (want \"fifo\" or \"fair\")", s)
}

// MarshalText makes Policy serialize by its stable name rather than its
// numeric value (JSON wire format, canonical cache keys).
func (p Policy) MarshalText() ([]byte, error) {
	switch p {
	case PolicyFIFO, PolicyFair:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("yarn: invalid policy %d", int(p))
}

// UnmarshalText parses the stable policy name.
func (p *Policy) UnmarshalText(b []byte) error {
	pol, err := ParsePolicy(string(b))
	if err != nil {
		return err
	}
	*p = pol
	return nil
}

// RM is the global ResourceManager with a single root queue: applications
// are ordered by the configured Policy, and within an application,
// higher-priority requests are served first.
type RM struct {
	eng           *simevent.Engine
	spec          cluster.Spec
	nodes         []*nodeState
	apps          []*App
	nextContainer int
	// Policy orders applications within the root queue.
	Policy Policy
	// HeartbeatDelay models the NM/AM heartbeat granularity: allocations are
	// delivered this long after the scheduling decision.
	HeartbeatDelay float64
	scheduling     bool
	schedulePosted bool
	rrCursor       int
}

// NewRM creates a ResourceManager over the cluster. Node capacities come
// from the spec's class table: heterogeneous clusters register one
// NodeManager per node at its class's capacity, laid out class by class; a
// flat spec degenerates to NumNodes identical registrations. The
// least-loaded pick stays deterministic — occupancy is a capacity-relative
// fraction, so mixed node sizes compare on equal footing, with the node-ID
// tiebreak unchanged.
func NewRM(eng *simevent.Engine, spec cluster.Spec) (*RM, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rm := &RM{eng: eng, spec: spec, HeartbeatDelay: 0.25}
	id := 0
	for _, class := range spec.ClassView() {
		for i := 0; i < class.Count; i++ {
			rm.nodes = append(rm.nodes, &nodeState{
				id:        id,
				available: class.Capacity,
				capacity:  class.Capacity,
			})
			id++
		}
	}
	return rm, nil
}

// Register adds an application to the FIFO queue.
func (rm *RM) Register(app *App) error {
	if app == nil || app.OnAllocate == nil {
		return errors.New("yarn: app must have an OnAllocate callback")
	}
	app.rm = rm
	rm.apps = append(rm.apps, app)
	return nil
}

// Unregister marks the application finished; its pending requests are
// dropped.
func (rm *RM) Unregister(app *App) {
	app.done = true
	app.requests = nil
}

// Submit sends a ResourceRequest to the RM (pending -> scheduled) and kicks
// the scheduler.
func (rm *RM) Submit(app *App, req *Request) error {
	if app.rm != rm {
		return errors.New("yarn: app not registered with this RM")
	}
	if req.Count <= 0 {
		return fmt.Errorf("yarn: request count must be positive (got %d)", req.Count)
	}
	if req.Size.IsZeroOrNegative() {
		return errors.New("yarn: request size must be positive")
	}
	req.app = app
	req.state = StateScheduled
	// Keep requests in the order a stable sort by descending priority
	// gives: after the last request of equal or higher priority.
	at := len(app.requests)
	for at > 0 && app.requests[at-1].Priority < req.Priority {
		at--
	}
	app.requests = slices.Insert(app.requests, at, req)
	rm.requestSchedule()
	return nil
}

// Release returns a container's resources to its node and requests a
// scheduling pass (container completed). Containers on a down node, or
// granted before the node's last failure, are dropped without touching the
// accounting: the loss already forfeited their resources.
func (rm *RM) Release(c *Container) {
	n := rm.nodes[c.Node]
	if n.down || c.epoch != n.epoch {
		return
	}
	n.available = n.available.Add(c.Size)
	rm.requestSchedule()
}

// NodeDown marks a node lost: it stops receiving allocations and its free
// resources are zeroed. Grants already in flight (scheduled before the
// failure, delivered after the heartbeat) still arrive — the AM must check
// node health on delivery and release unusable containers.
func (rm *RM) NodeDown(node int) {
	n := rm.nodes[node]
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	n.available = cluster.Resource{}
}

// NodeUp rejoins a previously lost node with full capacity and kicks the
// scheduler so queued requests can land on it.
func (rm *RM) NodeUp(node int) {
	n := rm.nodes[node]
	if !n.down {
		return
	}
	n.down = false
	n.available = n.capacity
	rm.requestSchedule()
}

// requestSchedule coalesces scheduling into a single deferred event so that
// all requests arriving at the same instant are considered together — the
// way real YARN accumulates asks between NM heartbeats. Without this, a
// lower-priority request submitted first would win simply by arriving one
// call earlier.
func (rm *RM) requestSchedule() {
	if rm.schedulePosted {
		return
	}
	rm.schedulePosted = true
	rm.eng.After(0, func() {
		rm.schedulePosted = false
		rm.Schedule()
	})
}

// Schedule runs one allocation pass under the configured policy, priority
// descending within an application, preferring node-local placements and
// otherwise the node with the lowest occupancy rate. Deliveries are deferred
// by HeartbeatDelay.
func (rm *RM) Schedule() {
	if rm.scheduling {
		return // guard against re-entrant scheduling from callbacks
	}
	rm.scheduling = true
	defer func() { rm.scheduling = false }()

	switch rm.Policy {
	case PolicyFair:
		rm.scheduleFair()
	default:
		rm.scheduleFIFO()
	}
	for _, app := range rm.apps {
		rm.compact(app)
	}
}

func (rm *RM) scheduleFIFO() {
	for _, app := range rm.apps {
		if app.done {
			continue
		}
		for _, req := range app.requests {
			for req.Remaining() > 0 {
				if !rm.allocateOne(app, req) {
					break
				}
			}
		}
	}
}

// scheduleFair hands one container per application per round until a full
// round makes no progress.
func (rm *RM) scheduleFair() {
	n := len(rm.apps)
	if n == 0 {
		return
	}
	for {
		progress := false
		for i := 0; i < n; i++ {
			app := rm.apps[(rm.rrCursor+i)%n]
			if app.done {
				continue
			}
			for _, req := range app.requests {
				if req.Remaining() > 0 && rm.allocateOne(app, req) {
					progress = true
					break
				}
			}
		}
		rm.rrCursor = (rm.rrCursor + 1) % n
		if !progress {
			return
		}
	}
}

// compact drops the fully allocated requests in place, keeping the
// priority order.
func (rm *RM) compact(app *App) {
	app.requests = slices.DeleteFunc(app.requests, func(r *Request) bool { return r.Remaining() <= 0 })
}

// allocateOne grants a single container for req; it reports false when no
// node fits.
func (rm *RM) allocateOne(app *App, req *Request) bool {
	node, local := rm.pickNode(req)
	if node < 0 {
		return false
	}
	rm.grant(app, req, node, local)
	return true
}

func (rm *RM) grant(app *App, req *Request, node int, local bool) {
	rm.nodes[node].available = rm.nodes[node].available.Sub(req.Size)
	c := &Container{
		ID:       rm.nextContainer,
		Node:     node,
		Size:     req.Size,
		Priority: req.Priority,
		Type:     req.Type,
		Local:    local,
		app:      app,
		epoch:    rm.nodes[node].epoch,
	}
	rm.nextContainer++
	req.allocated++
	if req.Remaining() == 0 {
		req.state = StateAssigned
	}
	cb := app.OnAllocate
	rm.eng.After(rm.HeartbeatDelay, func() { cb(c) })
}

// pickNode chooses a node for the request: first a preferred node with
// capacity (node-local), then rack/any fallback — the node with the lowest
// occupancy rate that fits. Returns (-1, false) when nothing fits.
func (rm *RM) pickNode(req *Request) (node int, local bool) {
	for _, p := range req.Preferred {
		if p >= 0 && p < len(rm.nodes) && !rm.nodes[p].down && rm.nodes[p].available.Fits(req.Size) {
			return p, true
		}
	}
	best := -1
	bestOcc := 2.0
	for _, n := range rm.nodes {
		if n.down || !n.available.Fits(req.Size) {
			continue
		}
		if occ := n.occupancy(); occ < bestOcc {
			bestOcc = occ
			best = n.id
		}
	}
	return best, false
}
