package yarn

import (
	"context"
	"slices"
	"strings"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/hdfs"
	"hadoop2perf/internal/simevent"
)

func testSpec(nodes int) cluster.Spec {
	return cluster.Spec{
		NumNodes:        nodes,
		NodeCapacity:    cluster.Resource{MemoryMB: 8192, VCores: 8},
		MapContainer:    cluster.Resource{MemoryMB: 4096, VCores: 2},
		ReduceContainer: cluster.Resource{MemoryMB: 4096, VCores: 2},
		CPUPerNode:      4, DiskPerNode: 1, DiskMBps: 100, NetworkMBps: 100,
	}
}

// State returns the request's lifecycle state: pending until submitted,
// scheduled while waiting at the RM, assigned once every container has been
// granted, completed after Complete.
func (r *Request) State() State { return r.state }

// Complete marks a request's lifecycle finished (assigned -> completed).
func (r *Request) Complete() { r.state = StateCompleted }

// AvailableOn returns the free resources of a node.
func (rm *RM) AvailableOn(node int) cluster.Resource { return rm.nodes[node].available }

// drain runs the engine to completion.
func drain(t *testing.T, eng *simevent.Engine) {
	t.Helper()
	if _, err := eng.RunContext(context.Background(), 100000); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterRequiresCallback(t *testing.T) {
	eng := simevent.NewEngine()
	rm, err := NewRM(eng, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Register(&App{ID: 1}); err == nil {
		t.Error("expected error for missing callback")
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := simevent.NewEngine()
	rm, _ := NewRM(eng, testSpec(2))
	app := &App{ID: 1, OnAllocate: func(*Container) {}}
	if err := rm.Register(app); err != nil {
		t.Fatal(err)
	}
	if err := rm.Submit(app, &Request{Count: 0, Size: cluster.Resource{MemoryMB: 1, VCores: 1}}); err == nil {
		t.Error("zero count accepted")
	}
	if err := rm.Submit(app, &Request{Count: 1}); err == nil {
		t.Error("zero size accepted")
	}
	other := &App{ID: 2, OnAllocate: func(*Container) {}}
	if err := rm.Submit(other, &Request{Count: 1, Size: cluster.Resource{MemoryMB: 1, VCores: 1}}); err == nil {
		t.Error("unregistered app accepted")
	}
}

func TestBasicAllocation(t *testing.T) {
	eng := simevent.NewEngine()
	rm, _ := NewRM(eng, testSpec(2))
	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	if err := rm.Register(app); err != nil {
		t.Fatal(err)
	}
	req := &Request{Priority: PriorityMap, Count: 3, Size: testSpec(2).MapContainer, Type: TypeMap}
	if err := rm.Submit(app, req); err != nil {
		t.Fatal(err)
	}
	drain(t, eng)
	if len(got) != 3 {
		t.Fatalf("allocated %d containers, want 3", len(got))
	}
	if req.State() != StateAssigned {
		t.Errorf("request state = %v, want assigned", req.State())
	}
	// Containers spread over both nodes (2 per node max by vcores... memory).
	nodes := map[int]int{}
	for _, c := range got {
		nodes[c.Node]++
	}
	if len(nodes) < 2 {
		t.Errorf("containers not spread: %v", nodes)
	}
}

func TestCapacityLimitsAndRelease(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1) // one node: 2 map containers max (memory)
	rm, _ := NewRM(eng, spec)
	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	_ = rm.Register(app)
	req := &Request{Priority: PriorityMap, Count: 3, Size: spec.MapContainer, Type: TypeMap}
	_ = rm.Submit(app, req)
	drain(t, eng)
	if len(got) != 2 {
		t.Fatalf("allocated %d, want 2 (capacity)", len(got))
	}
	if req.Remaining() != 1 {
		t.Fatalf("remaining = %d", req.Remaining())
	}
	// Releasing one container lets the third in.
	rm.Release(got[0])
	drain(t, eng)
	if len(got) != 3 {
		t.Fatalf("after release: %d, want 3", len(got))
	}
}

func TestPriorityMapsBeforeReduces(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1)
	rm, _ := NewRM(eng, spec)
	var order []TaskType
	app := &App{ID: 1, OnAllocate: func(c *Container) { order = append(order, c.Type) }}
	_ = rm.Register(app)
	// Submit the reduce request FIRST; maps must still win by priority.
	_ = rm.Submit(app, &Request{Priority: PriorityReduce, Count: 1, Size: spec.ReduceContainer, Type: TypeReduce})
	_ = rm.Submit(app, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	drain(t, eng)
	if len(order) < 2 {
		t.Fatalf("got %d allocations", len(order))
	}
	if order[0] != TypeMap || order[1] != TypeMap {
		t.Errorf("allocation order = %v, maps must come first", order)
	}
}

func TestLocalityPreference(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(3)
	rm, _ := NewRM(eng, spec)
	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	_ = rm.Register(app)
	_ = rm.Submit(app, &Request{
		Priority: PriorityMap, Count: 1, Size: spec.MapContainer,
		Type: TypeMap, Preferred: []int{2},
	})
	drain(t, eng)
	if len(got) != 1 || got[0].Node != 2 || !got[0].Local {
		t.Errorf("allocation = %+v, want local on node 2", got[0])
	}
}

func TestLocalityFallback(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(2)
	rm, _ := NewRM(eng, spec)
	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	_ = rm.Register(app)
	// Fill node 0 entirely.
	_ = rm.Submit(app, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap, Preferred: []int{0}})
	drain(t, eng)
	// Prefer node 0 (full) -> falls back to node 1, marked non-local.
	_ = rm.Submit(app, &Request{Priority: PriorityMap, Count: 1, Size: spec.MapContainer, Type: TypeMap, Preferred: []int{0}})
	drain(t, eng)
	last := got[len(got)-1]
	if last.Node != 1 || last.Local {
		t.Errorf("fallback allocation = %+v, want non-local node 1", last)
	}
}

func TestFIFOPolicyOrdersApps(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1) // capacity 2 map containers
	rm, _ := NewRM(eng, spec)
	var owners []int
	app1 := &App{ID: 1, OnAllocate: func(c *Container) { owners = append(owners, 1) }}
	app2 := &App{ID: 2, OnAllocate: func(c *Container) { owners = append(owners, 2) }}
	_ = rm.Register(app1)
	_ = rm.Register(app2)
	_ = rm.Submit(app2, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	_ = rm.Submit(app1, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	drain(t, eng)
	// FIFO: app1 registered first gets both containers even though app2
	// submitted first.
	if len(owners) != 2 || owners[0] != 1 || owners[1] != 1 {
		t.Errorf("owners = %v, want app1 first under FIFO", owners)
	}
}

func TestFairPolicyInterleavesApps(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1)
	rm, _ := NewRM(eng, spec)
	rm.Policy = PolicyFair
	count := map[int]int{}
	app1 := &App{ID: 1, OnAllocate: func(c *Container) { count[1]++ }}
	app2 := &App{ID: 2, OnAllocate: func(c *Container) { count[2]++ }}
	_ = rm.Register(app1)
	_ = rm.Register(app2)
	_ = rm.Submit(app1, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	_ = rm.Submit(app2, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	drain(t, eng)
	if count[1] != 1 || count[2] != 1 {
		t.Errorf("fair split = %v, want 1 each", count)
	}
}

func TestUnregisterDropsRequests(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1)
	rm, _ := NewRM(eng, spec)
	var got int
	app := &App{ID: 1, OnAllocate: func(*Container) { got++ }}
	_ = rm.Register(app)
	_ = rm.Submit(app, &Request{Priority: PriorityMap, Count: 2, Size: spec.MapContainer, Type: TypeMap})
	drain(t, eng)
	rm.Unregister(app)
	// Free capacity; the app must not receive more containers.
	rm.Release(&Container{Node: 0, Size: spec.MapContainer})
	drain(t, eng)
	if got != 2 {
		t.Errorf("allocations after unregister = %d, want 2", got)
	}
}

func TestAvailableAccounting(t *testing.T) {
	eng := simevent.NewEngine()
	spec := testSpec(1)
	rm, _ := NewRM(eng, spec)
	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	_ = rm.Register(app)
	_ = rm.Submit(app, &Request{Priority: PriorityMap, Count: 1, Size: spec.MapContainer, Type: TypeMap})
	drain(t, eng)
	avail := rm.AvailableOn(0)
	want := spec.NodeCapacity.Sub(spec.MapContainer)
	if avail != want {
		t.Errorf("available = %v, want %v", avail, want)
	}
	rm.Release(got[0])
	if rm.AvailableOn(0) != spec.NodeCapacity {
		t.Errorf("after release: %v", rm.AvailableOn(0))
	}
}

func TestLifecycleStates(t *testing.T) {
	req := &Request{Count: 2, Size: cluster.Resource{MemoryMB: 1, VCores: 1}}
	if req.State() != StatePending {
		t.Errorf("initial state = %v", req.State())
	}
	for s, want := range map[State]string{
		StatePending: "pending", StateScheduled: "scheduled",
		StateAssigned: "assigned", StateCompleted: "completed",
	} {
		if s.String() != want {
			t.Errorf("State(%d) = %q", s, s.String())
		}
	}
	req.Complete()
	if req.State() != StateCompleted {
		t.Errorf("after Complete: %v", req.State())
	}
}

func TestRequestTableRunningExample(t *testing.T) {
	// Paper running example: n=3 nodes, m=4 maps, r=1 reduce (Table 1).
	spec := cluster.Default(3)
	file, err := hdfs.Place("in", 4*128, 128, 3, hdfs.DefaultReplication)
	if err != nil {
		t.Fatal(err)
	}
	rows := BuildRequestTable(file, 1, spec)
	var mapContainers, reduceContainers int
	for _, r := range rows {
		switch r.Type {
		case TypeMap:
			if r.Priority != PriorityMap {
				t.Errorf("map row priority = %d", r.Priority)
			}
			if r.Locality == "*" {
				t.Error("map rows must carry node locality")
			}
			mapContainers += r.NumContainers
		case TypeReduce:
			if r.Priority != PriorityReduce {
				t.Errorf("reduce row priority = %d", r.Priority)
			}
			if r.Locality != "*" {
				t.Errorf("reduce locality = %q, want *", r.Locality)
			}
			reduceContainers += r.NumContainers
		}
	}
	if mapContainers != 4 {
		t.Errorf("map containers = %d, want 4", mapContainers)
	}
	if reduceContainers != 1 {
		t.Errorf("reduce containers = %d, want 1", reduceContainers)
	}
	out := FormatRequestTable(rows)
	if !strings.Contains(out, "Priority") || !strings.Contains(out, "reduce") {
		t.Errorf("formatted table missing headers:\n%s", out)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyFIFO.String() != "fifo" || PolicyFair.String() != "fair" {
		t.Error("policy strings wrong")
	}
}

func TestTaskTypeString(t *testing.T) {
	if TypeMap.String() != "map" || TypeReduce.String() != "reduce" {
		t.Error("task type strings wrong")
	}
}

// TestRMHeterogeneousCapacities checks the RM builds per-node capacities
// from the class table: big nodes absorb more containers, and allocation
// stops exactly at the summed class capacity.
func TestRMHeterogeneousCapacities(t *testing.T) {
	eng := simevent.NewEngine()
	spec := cluster.Spec{
		MapContainer:    cluster.Resource{MemoryMB: 1024, VCores: 1},
		ReduceContainer: cluster.Resource{MemoryMB: 1024, VCores: 1},
		Classes: []cluster.NodeClass{
			{Name: "big", Count: 1, Capacity: cluster.Resource{MemoryMB: 4096, VCores: 8},
				CPUs: 4, Disks: 1, DiskMBps: 100, NetworkMBps: 100},
			{Name: "small", Count: 2, Capacity: cluster.Resource{MemoryMB: 1024, VCores: 2},
				CPUs: 2, Disks: 1, DiskMBps: 100, NetworkMBps: 100},
		},
	}
	rm, err := NewRM(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.AvailableOn(0); got != spec.Classes[0].Capacity {
		t.Errorf("node 0 capacity = %v, want big class %v", got, spec.Classes[0].Capacity)
	}
	if got := rm.AvailableOn(2); got != spec.Classes[1].Capacity {
		t.Errorf("node 2 capacity = %v, want small class %v", got, spec.Classes[1].Capacity)
	}

	var got []*Container
	app := &App{ID: 1, OnAllocate: func(c *Container) { got = append(got, c) }}
	if err := rm.Register(app); err != nil {
		t.Fatal(err)
	}
	// Ask for more containers than the cluster holds: 4 (big) + 1 + 1 (small).
	if err := rm.Submit(app, &Request{Priority: PriorityMap, Count: 10,
		Size: cluster.Resource{MemoryMB: 1024, VCores: 1}, Type: TypeMap}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunContext(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("allocated %d containers, want 6 (cluster capacity)", len(got))
	}
	perNode := map[int]int{}
	for _, c := range got {
		perNode[c.Node]++
	}
	if perNode[0] != 4 || perNode[1] != 1 || perNode[2] != 1 {
		t.Errorf("per-node allocation = %v, want map[0:4 1:1 2:1]", perNode)
	}
}

// Submit keeps an application's requests in the order a stable sort by
// descending priority gives, which is the order every scheduling pass
// serves them in.
func TestSubmitKeepsStablePriorityOrder(t *testing.T) {
	spec := testSpec(1)
	rm, _ := NewRM(simevent.NewEngine(), spec)
	app := &App{ID: 1, OnAllocate: func(*Container) {}}
	_ = rm.Register(app)
	var submitted []*Request
	for i, prio := range []int{10, 20, 10, 15, 20, 5, 20, 10, 15, 30, 5, 20} {
		req := &Request{Priority: prio, Count: 1 + i, Size: spec.MapContainer, Type: TypeMap}
		if err := rm.Submit(app, req); err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, req)
		want := slices.Clone(submitted)
		slices.SortStableFunc(want, func(a, b *Request) int { return b.Priority - a.Priority })
		if !slices.Equal(app.requests, want) {
			t.Fatalf("after %d submissions the requests are out of stable priority order", i+1)
		}
	}
}
