// Package cluster describes the physical Hadoop 2.x cluster. The paper
// assumes homogeneous nodes ("all of them having the same technical
// characteristics"); this package keeps that flat form as a special case and
// generalizes it to heterogeneous clusters made of node classes — groups of
// identical nodes mixing hardware generations. Container sizing stays
// cluster-wide (it is the MapReduce AM's request, not hardware), from which
// the per-node container limits pMaxMapsPerNode / pMaxReducePerNode of the
// paper (§4.3) are derived per class.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Resource is a YARN-style resource vector (memory in MB, virtual cores).
// JSON tags give the wire API (cmd/mrserved) camelCase field names.
type Resource struct {
	MemoryMB int `json:"memoryMB"` // schedulable memory, MB
	VCores   int `json:"vcores"`   // schedulable virtual cores
}

// Add returns r + o componentwise.
func (r Resource) Add(o Resource) Resource {
	return Resource{MemoryMB: r.MemoryMB + o.MemoryMB, VCores: r.VCores + o.VCores}
}

// Sub returns r - o componentwise.
func (r Resource) Sub(o Resource) Resource {
	return Resource{MemoryMB: r.MemoryMB - o.MemoryMB, VCores: r.VCores - o.VCores}
}

// Fits reports whether o fits within r.
func (r Resource) Fits(o Resource) bool {
	return o.MemoryMB <= r.MemoryMB && o.VCores <= r.VCores
}

// IsZeroOrNegative reports whether any component is <= 0.
func (r Resource) IsZeroOrNegative() bool { return r.MemoryMB <= 0 || r.VCores <= 0 }

// String renders the vector for logs and error messages.
func (r Resource) String() string {
	return fmt.Sprintf("<%d MB, %d vcores>", r.MemoryMB, r.VCores)
}

// NodeClass is one hardware class of a heterogeneous cluster: Count nodes
// sharing the same capacity, core/disk counts, bandwidths and relative
// compute speed. Nodes are numbered class by class: the first class owns node
// IDs 0..Count-1, the next class the following IDs, and so on.
type NodeClass struct {
	// Name identifies the class (wire format, cache keys, error messages).
	Name string `json:"name"`
	// Count is the number of nodes of this class.
	Count int `json:"count"`
	// Capacity is the schedulable YARN resource per node of the class.
	Capacity Resource `json:"capacity"`
	// CPUs and Disks are the contended hardware units per node (cores sharing
	// CPU work, spindles sharing disk bandwidth).
	CPUs  int `json:"cpus"`
	Disks int `json:"disks"` // spindles per node (see CPUs)
	// DiskMBps and NetworkMBps convert bytes into service demands for tasks
	// placed on this class.
	DiskMBps    float64 `json:"diskMBps"`
	NetworkMBps float64 `json:"networkMBps"` // per-NIC bandwidth (see DiskMBps)
	// Speed is the relative per-core compute speed of the class: CPU service
	// demands divide by it (1 = the calibrated baseline generation; 2 = twice
	// as fast). Zero means 1.
	Speed float64 `json:"speed,omitempty"`
	// Preemptible marks spot-style capacity that the provider can revoke
	// mid-job; revoked nodes vanish like failed nodes (simulator) and carry
	// an extra failure hazard (model correction).
	Preemptible bool `json:"preemptible,omitempty"`
	// RevocationRate is the expected number of revocations per node per hour
	// of a preemptible class (exponential hazard). Requires Preemptible.
	RevocationRate float64 `json:"revocationRate,omitempty"`
	// Price is the relative cost of one node-second of this class; the
	// planner ranks candidates by price-weighted node-seconds. Zero means the
	// default 1 (every class priced equally); at most MaxPrice.
	Price float64 `json:"price,omitempty"`
}

// MaxPrice bounds NodeClass.Price. A cluster's PriceWeight is then at most
// MaxPrice times its node count, so a plan cost, response time ×
// PriceWeight, overflows to +Inf only where response time × node count
// passes 1e302.
const MaxPrice = 1e6

// SpeedFactor returns the effective compute-speed multiplier (Speed, or 1
// when unset).
func (c NodeClass) SpeedFactor() float64 {
	if c.Speed > 0 {
		return c.Speed
	}
	return 1
}

// PriceFactor returns the relative node-second price (Price, or 1 when
// unset).
func (c NodeClass) PriceFactor() float64 {
	if c.Price > 0 {
		return c.Price
	}
	return 1
}

// validate checks one class entry.
func (c NodeClass) validate() error {
	switch {
	case c.Name == "":
		return errors.New("cluster: node class needs a name")
	case c.Count <= 0:
		return fmt.Errorf("cluster: class %q: Count must be positive", c.Name)
	case c.Capacity.IsZeroOrNegative():
		return fmt.Errorf("cluster: class %q: Capacity must be positive", c.Name)
	case c.CPUs <= 0 || c.Disks <= 0:
		return fmt.Errorf("cluster: class %q: CPUs and Disks must be positive", c.Name)
	case !(positiveFinite(c.DiskMBps) && positiveFinite(c.NetworkMBps)):
		return fmt.Errorf("cluster: class %q: DiskMBps and NetworkMBps must be positive and finite", c.Name)
	case !(c.Speed >= 0 && c.Speed <= math.MaxFloat64): // NaN fails both
		return fmt.Errorf("cluster: class %q: Speed must be nonnegative and finite", c.Name)
	case !(c.RevocationRate >= 0 && c.RevocationRate <= math.MaxFloat64):
		return fmt.Errorf("cluster: class %q: RevocationRate must be nonnegative and finite", c.Name)
	case c.RevocationRate > 0 && !c.Preemptible:
		return fmt.Errorf("cluster: class %q: RevocationRate requires Preemptible", c.Name)
	case !(c.Price >= 0 && c.Price <= MaxPrice): // NaN fails both
		return fmt.Errorf("cluster: class %q: Price must be in [0, %g]", c.Name, MaxPrice)
	}
	return nil
}

// positiveFinite reports 0 < x < +Inf; NaN fails both comparisons.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Spec is a cluster specification. Two forms round-trip through JSON:
//
//   - the flat (legacy) form — NumNodes identical nodes described by
//     NodeCapacity / CPUPerNode / DiskPerNode / DiskMBps / NetworkMBps; and
//   - the class form — Classes partitions the cluster into hardware classes,
//     the per-node flat fields are ignored, and NumNodes is either zero or
//     must equal the sum of class counts.
//
// MapContainer and ReduceContainer apply to both forms: container sizing is
// requested by the job's ApplicationMaster and does not vary by hardware.
type Spec struct {
	// NumNodes is the number of worker nodes in the cluster (flat form). With
	// Classes set it is redundant: zero, or the sum of the class counts.
	NumNodes int `json:"numNodes,omitempty"`
	// NodeCapacity is the schedulable resource per node (flat form).
	NodeCapacity Resource `json:"nodeCapacity,omitempty"`
	// MapContainer and ReduceContainer are the container sizes requested by
	// the MapReduce ApplicationMaster for map and reduce tasks.
	MapContainer    Resource `json:"mapContainer"`
	ReduceContainer Resource `json:"reduceContainer"` // reduce-task container size (see MapContainer)
	// CPUPerNode and DiskPerNode describe the node hardware used by the
	// contention model (number of cores sharing CPU work, number of disks) in
	// the flat form.
	CPUPerNode  int `json:"cpuPerNode,omitempty"`
	DiskPerNode int `json:"diskPerNode,omitempty"` // disks per node (see CPUPerNode)
	// DiskMBps and NetworkMBps are per-disk and per-NIC bandwidths used to
	// convert bytes into service demands (flat form).
	DiskMBps    float64 `json:"diskMBps,omitempty"`
	NetworkMBps float64 `json:"networkMBps,omitempty"` // per-NIC bandwidth, flat form (see DiskMBps)
	// Classes, when non-empty, selects the heterogeneous class form: the
	// cluster is the concatenation of the classes' node groups, in order.
	Classes []NodeClass `json:"classes,omitempty"`
}

// Default returns the evaluation cluster of the paper (§5.1), scaled to a
// simulator-friendly container configuration. Like the authors' 128 GB
// nodes, containers are plentiful (8 map containers per node) so the
// physical resources — cores, disk, network — are the contended bottleneck,
// not container slots; this is the regime the paper's queueing model
// assumes. Reduce containers always fit alongside maps, which lets the
// shuffle overlap the map phase under slow start.
func Default(numNodes int) Spec {
	return Spec{
		NumNodes:        numNodes,
		NodeCapacity:    Resource{MemoryMB: 32768, VCores: 32},
		MapContainer:    Resource{MemoryMB: 4096, VCores: 2},
		ReduceContainer: Resource{MemoryMB: 4096, VCores: 4},
		CPUPerNode:      6,
		DiskPerNode:     1,
		DiskMBps:        240,
		NetworkMBps:     110,
	}
}

// Equal reports whether s and o describe the same cluster, field for
// field: == on the scalars and on each class. Float fields compare by
// value, so −0 and +0 are equal.
func (s Spec) Equal(o Spec) bool {
	return s.NumNodes == o.NumNodes &&
		s.NodeCapacity == o.NodeCapacity &&
		s.MapContainer == o.MapContainer &&
		s.ReduceContainer == o.ReduceContainer &&
		s.CPUPerNode == o.CPUPerNode &&
		s.DiskPerNode == o.DiskPerNode &&
		s.DiskMBps == o.DiskMBps &&
		s.NetworkMBps == o.NetworkMBps &&
		slices.Equal(s.Classes, o.Classes)
}

// Heterogeneous reports whether the spec uses the class form.
func (s Spec) Heterogeneous() bool { return len(s.Classes) > 0 }

// HasRevocations reports whether any class carries a preemptible revocation
// hazard (so fault mechanics are active even without an explicit fault plan).
func (s Spec) HasRevocations() bool {
	for _, c := range s.Classes {
		if c.Preemptible && c.RevocationRate > 0 {
			return true
		}
	}
	return false
}

// PriceWeight is the cluster's total relative price per second: the sum of
// Count×PriceFactor over classes (exactly TotalNodes when no class sets a
// price). Planner cost rankings multiply it by response time.
func (s Spec) PriceWeight() float64 {
	var w float64
	for _, c := range s.ClassView() {
		w += float64(c.Count) * c.PriceFactor()
	}
	return w
}

// ClassView returns the canonical class table: Classes when set, otherwise a
// single synthesized class mirroring the flat fields. The returned slice
// must not be mutated.
func (s Spec) ClassView() []NodeClass {
	if len(s.Classes) > 0 {
		return s.Classes
	}
	return []NodeClass{{
		Name:        "default",
		Count:       s.NumNodes,
		Capacity:    s.NodeCapacity,
		CPUs:        s.CPUPerNode,
		Disks:       s.DiskPerNode,
		DiskMBps:    s.DiskMBps,
		NetworkMBps: s.NetworkMBps,
		Speed:       1,
	}}
}

// TotalNodes is the worker-node count across all classes (NumNodes for flat
// specs).
func (s Spec) TotalNodes() int {
	if len(s.Classes) == 0 {
		return s.NumNodes
	}
	n := 0
	for _, c := range s.Classes {
		n += c.Count
	}
	return n
}

// Validate checks the spec for internally consistent values.
func (s Spec) Validate() error {
	switch {
	case s.MapContainer.IsZeroOrNegative():
		return errors.New("cluster: MapContainer must be positive")
	case s.ReduceContainer.IsZeroOrNegative():
		return errors.New("cluster: ReduceContainer must be positive")
	}
	if len(s.Classes) > 0 {
		return s.validateClasses()
	}
	switch {
	case s.NumNodes <= 0:
		return errors.New("cluster: NumNodes must be positive")
	case s.NodeCapacity.IsZeroOrNegative():
		return errors.New("cluster: NodeCapacity must be positive")
	case !s.NodeCapacity.Fits(s.MapContainer):
		return errors.New("cluster: map container exceeds node capacity")
	case !s.NodeCapacity.Fits(s.ReduceContainer):
		return errors.New("cluster: reduce container exceeds node capacity")
	case s.CPUPerNode <= 0 || s.DiskPerNode <= 0:
		return errors.New("cluster: CPUPerNode and DiskPerNode must be positive")
	case !(positiveFinite(s.DiskMBps) && positiveFinite(s.NetworkMBps)):
		return errors.New("cluster: DiskMBps and NetworkMBps must be positive and finite")
	}
	return nil
}

func (s Spec) validateClasses() error {
	names := make(map[string]bool, len(s.Classes))
	total := 0
	for _, c := range s.Classes {
		if err := c.validate(); err != nil {
			return err
		}
		if names[c.Name] {
			return fmt.Errorf("cluster: duplicate node class %q", c.Name)
		}
		names[c.Name] = true
		if !c.Capacity.Fits(s.MapContainer) {
			return fmt.Errorf("cluster: map container exceeds class %q capacity", c.Name)
		}
		if !c.Capacity.Fits(s.ReduceContainer) {
			return fmt.Errorf("cluster: reduce container exceeds class %q capacity", c.Name)
		}
		total += c.Count
	}
	if s.NumNodes != 0 && s.NumNodes != total {
		return fmt.Errorf("cluster: NumNodes %d disagrees with class counts (sum %d)", s.NumNodes, total)
	}
	return nil
}

// MeanDiskMBps is the count-weighted harmonic-mean disk bandwidth across
// classes — the bandwidth whose per-byte cost equals the cluster-average
// per-byte cost. For flat and single-class specs it is exactly the class
// value.
func (s Spec) MeanDiskMBps() float64 {
	cs := s.ClassView()
	if len(cs) == 1 {
		return cs[0].DiskMBps
	}
	var inv float64
	n := 0
	for _, c := range cs {
		inv += float64(c.Count) / c.DiskMBps
		n += c.Count
	}
	return float64(n) / inv
}

// MeanNetworkMBps is the count-weighted harmonic-mean NIC bandwidth across
// classes (the exact class value for flat and single-class specs).
func (s Spec) MeanNetworkMBps() float64 {
	cs := s.ClassView()
	if len(cs) == 1 {
		return cs[0].NetworkMBps
	}
	var inv float64
	n := 0
	for _, c := range cs {
		inv += float64(c.Count) / c.NetworkMBps
		n += c.Count
	}
	return float64(n) / inv
}

// MeanInvSpeed is the count-weighted mean inverse compute speed: the factor
// an average task's CPU demand carries on this cluster (exactly 1 for flat
// specs).
func (s Spec) MeanInvSpeed() float64 {
	cs := s.ClassView()
	if len(cs) == 1 {
		return 1 / cs[0].SpeedFactor()
	}
	var inv float64
	n := 0
	for _, c := range cs {
		inv += float64(c.Count) / c.SpeedFactor()
		n += c.Count
	}
	return inv / float64(n)
}

// MaxMapsOf is pMaxMapsPerNode of §4.3 for one class: how many map
// containers fit in a node of the class, limited by both memory and vcores.
func (s Spec) MaxMapsOf(c NodeClass) int { return containersPerNode(c.Capacity, s.MapContainer) }

// MaxReducesOf is pMaxReducePerNode of §4.3 for one class.
func (s Spec) MaxReducesOf(c NodeClass) int { return containersPerNode(c.Capacity, s.ReduceContainer) }

func containersPerNode(capacity, container Resource) int {
	if container.IsZeroOrNegative() {
		return 0
	}
	byMem := capacity.MemoryMB / container.MemoryMB
	byCPU := capacity.VCores / container.VCores
	if byCPU < byMem {
		return byCPU
	}
	return byMem
}
