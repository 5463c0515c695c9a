package cluster

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// ClassOfNode maps a node ID (0-based, classes laid out in order) to its
// class index in ClassView. Out-of-range IDs map to the last class.
func (s Spec) ClassOfNode(node int) int {
	if len(s.Classes) == 0 {
		return 0
	}
	for i, c := range s.Classes {
		node -= c.Count
		if node < 0 {
			return i
		}
	}
	return len(s.Classes) - 1
}

// NodeCapacityOf returns the schedulable capacity of one node.
func (s Spec) NodeCapacityOf(node int) Resource {
	if len(s.Classes) == 0 {
		return s.NodeCapacity
	}
	return s.Classes[s.ClassOfNode(node)].Capacity
}

// MaxMapsPerNode is the largest per-node map container capacity across
// classes (for flat specs: the capacity of every node).
func (s Spec) MaxMapsPerNode() int {
	if len(s.Classes) == 0 {
		return containersPerNode(s.NodeCapacity, s.MapContainer)
	}
	best := 0
	for _, c := range s.Classes {
		if m := s.MaxMapsOf(c); m > best {
			best = m
		}
	}
	return best
}

// MaxReducesPerNode is the largest per-node reduce container capacity across
// classes.
func (s Spec) MaxReducesPerNode() int {
	if len(s.Classes) == 0 {
		return containersPerNode(s.NodeCapacity, s.ReduceContainer)
	}
	best := 0
	for _, c := range s.Classes {
		if m := s.MaxReducesOf(c); m > best {
			best = m
		}
	}
	return best
}

func TestResourceArithmetic(t *testing.T) {
	a := Resource{MemoryMB: 4096, VCores: 4}
	b := Resource{MemoryMB: 1024, VCores: 1}
	if got := a.Add(b); got != (Resource{MemoryMB: 5120, VCores: 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resource{MemoryMB: 3072, VCores: 3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestResourceFits(t *testing.T) {
	tests := []struct {
		name string
		r, o Resource
		want bool
	}{
		{"exact", Resource{1024, 2}, Resource{1024, 2}, true},
		{"smaller", Resource{4096, 8}, Resource{1024, 2}, true},
		{"memory too big", Resource{1024, 8}, Resource{2048, 2}, false},
		{"vcores too big", Resource{4096, 1}, Resource{1024, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Fits(tt.o); got != tt.want {
				t.Errorf("%v.Fits(%v) = %v, want %v", tt.r, tt.o, got, tt.want)
			}
		})
	}
}

func TestResourceIsZeroOrNegative(t *testing.T) {
	if (Resource{1024, 1}).IsZeroOrNegative() {
		t.Error("positive resource flagged")
	}
	for _, r := range []Resource{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		if !r.IsZeroOrNegative() {
			t.Errorf("%v not flagged", r)
		}
	}
}

func TestResourceString(t *testing.T) {
	if got := (Resource{MemoryMB: 2048, VCores: 3}).String(); got != "<2048 MB, 3 vcores>" {
		t.Errorf("String = %q", got)
	}
}

func TestDefaultValidates(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8, 100} {
		if err := Default(n).Validate(); err != nil {
			t.Errorf("Default(%d): %v", n, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := Default(4)
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero nodes", func(s *Spec) { s.NumNodes = 0 }},
		{"zero capacity", func(s *Spec) { s.NodeCapacity = Resource{} }},
		{"zero map container", func(s *Spec) { s.MapContainer = Resource{} }},
		{"zero reduce container", func(s *Spec) { s.ReduceContainer = Resource{} }},
		{"map exceeds node", func(s *Spec) { s.MapContainer = Resource{MemoryMB: 1 << 20, VCores: 1} }},
		{"reduce exceeds node", func(s *Spec) { s.ReduceContainer = Resource{MemoryMB: 1 << 20, VCores: 1} }},
		{"zero cpus", func(s *Spec) { s.CPUPerNode = 0 }},
		{"zero disks", func(s *Spec) { s.DiskPerNode = 0 }},
		{"zero disk bw", func(s *Spec) { s.DiskMBps = 0 }},
		{"zero net bw", func(s *Spec) { s.NetworkMBps = 0 }},
		{"NaN disk bw", func(s *Spec) { s.DiskMBps = math.NaN() }},
		{"infinite disk bw", func(s *Spec) { s.DiskMBps = math.Inf(1) }},
		{"NaN net bw", func(s *Spec) { s.NetworkMBps = math.NaN() }},
		{"infinite net bw", func(s *Spec) { s.NetworkMBps = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestContainerCounts(t *testing.T) {
	s := Spec{
		NumNodes:        4,
		NodeCapacity:    Resource{MemoryMB: 32768, VCores: 32},
		MapContainer:    Resource{MemoryMB: 4096, VCores: 2},
		ReduceContainer: Resource{MemoryMB: 8192, VCores: 16},
		CPUPerNode:      8, DiskPerNode: 1, DiskMBps: 100, NetworkMBps: 100,
	}
	if got := s.MaxMapsPerNode(); got != 8 {
		t.Errorf("MaxMapsPerNode = %d, want 8 (memory-bound)", got)
	}
	if got := s.MaxReducesPerNode(); got != 2 {
		t.Errorf("MaxReducesPerNode = %d, want 2 (vcore-bound)", got)
	}
}

func TestContainersPerNodeZeroContainer(t *testing.T) {
	if got := containersPerNode(Resource{1024, 8}, Resource{}); got != 0 {
		t.Errorf("zero container should yield 0, got %d", got)
	}
}

// Property: the derived container counts always fit back into the node.
func TestContainerCountsFitProperty(t *testing.T) {
	f := func(memMB, vcores, cMem, cCores uint8) bool {
		capacity := Resource{MemoryMB: int(memMB)*512 + 512, VCores: int(vcores)%16 + 1}
		container := Resource{MemoryMB: int(cMem)*256 + 256, VCores: int(cCores)%4 + 1}
		n := containersPerNode(capacity, container)
		if n < 0 {
			return false
		}
		used := Resource{MemoryMB: n * container.MemoryMB, VCores: n * container.VCores}
		if !capacity.Fits(used) {
			return false
		}
		// One more container must NOT fit.
		more := used.Add(container)
		return !capacity.Fits(more)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// twoClass returns a valid 2-class spec: 2 big fast nodes + 3 small slow
// ones under the default container sizing, with no flat per-node fields set.
func twoClass() Spec {
	s := Spec{
		MapContainer:    Resource{MemoryMB: 4096, VCores: 2},
		ReduceContainer: Resource{MemoryMB: 4096, VCores: 4},
	}
	s.Classes = []NodeClass{
		{Name: "fast", Count: 2, Capacity: Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 2, DiskMBps: 240, NetworkMBps: 110, Speed: 1.5},
		{Name: "slow", Count: 3, Capacity: Resource{MemoryMB: 16384, VCores: 16},
			CPUs: 4, Disks: 1, DiskMBps: 140, NetworkMBps: 55},
	}
	return s
}

func TestClassSpecValidateAndHelpers(t *testing.T) {
	s := twoClass()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Heterogeneous() {
		t.Error("class spec not heterogeneous")
	}
	if got := s.TotalNodes(); got != 5 {
		t.Errorf("TotalNodes = %d, want 5", got)
	}
	// Default containers: map 4096MB/2vc, reduce 4096MB/4vc.
	// fast: 32768/4096=8 maps, min(8, 32/4=8)=8 reduces.
	// slow: 16384/4096=4 maps, min(4, 16/4=4)=4 reduces.
	if got := s.MaxMapsOf(s.Classes[0]); got != 8 {
		t.Errorf("fast MaxMapsOf = %d, want 8", got)
	}
	if got := s.MaxMapsOf(s.Classes[1]); got != 4 {
		t.Errorf("slow MaxMapsOf = %d, want 4", got)
	}
	if got := s.MaxMapsPerNode(); got != 8 {
		t.Errorf("MaxMapsPerNode = %d, want 8 (max across classes)", got)
	}
	// Node layout: class by class.
	for node, wantCls := range []int{0, 0, 1, 1, 1} {
		if got := s.ClassOfNode(node); got != wantCls {
			t.Errorf("ClassOfNode(%d) = %d, want %d", node, got, wantCls)
		}
	}
	if got := s.NodeCapacityOf(4); got != (Resource{MemoryMB: 16384, VCores: 16}) {
		t.Errorf("NodeCapacityOf(4) = %v", got)
	}
	if got := s.Classes[1].SpeedFactor(); got != 1 {
		t.Errorf("zero Speed should default to 1, got %v", got)
	}
	// ClassView of a flat spec synthesizes one matching class.
	flat := Default(4)
	view := flat.ClassView()
	if len(view) != 1 || view[0].Count != 4 || view[0].DiskMBps != flat.DiskMBps || view[0].SpeedFactor() != 1 {
		t.Errorf("flat ClassView = %+v", view)
	}
}

func TestClassSpecValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unnamed class", func(s *Spec) { s.Classes[0].Name = "" }},
		{"duplicate class name", func(s *Spec) { s.Classes[1].Name = "fast" }},
		{"zero count", func(s *Spec) { s.Classes[0].Count = 0 }},
		{"zero capacity", func(s *Spec) { s.Classes[1].Capacity = Resource{} }},
		{"zero cpus", func(s *Spec) { s.Classes[0].CPUs = 0 }},
		{"zero disks", func(s *Spec) { s.Classes[0].Disks = 0 }},
		{"zero disk bw", func(s *Spec) { s.Classes[1].DiskMBps = 0 }},
		{"zero net bw", func(s *Spec) { s.Classes[1].NetworkMBps = 0 }},
		{"NaN disk bw", func(s *Spec) { s.Classes[1].DiskMBps = math.NaN() }},
		{"infinite disk bw", func(s *Spec) { s.Classes[1].DiskMBps = math.Inf(1) }},
		{"NaN net bw", func(s *Spec) { s.Classes[0].NetworkMBps = math.NaN() }},
		{"infinite net bw", func(s *Spec) { s.Classes[0].NetworkMBps = math.Inf(1) }},
		{"negative speed", func(s *Spec) { s.Classes[0].Speed = -1 }},
		{"NaN speed", func(s *Spec) { s.Classes[0].Speed = math.NaN() }},
		{"infinite speed", func(s *Spec) { s.Classes[0].Speed = math.Inf(1) }},
		{"negative revocation rate", func(s *Spec) { s.Classes[1].Preemptible, s.Classes[1].RevocationRate = true, -1 }},
		{"NaN revocation rate", func(s *Spec) { s.Classes[1].Preemptible, s.Classes[1].RevocationRate = true, math.NaN() }},
		{"infinite revocation rate", func(s *Spec) { s.Classes[1].Preemptible, s.Classes[1].RevocationRate = true, math.Inf(1) }},
		{"negative price", func(s *Spec) { s.Classes[0].Price = -1 }},
		{"price over MaxPrice", func(s *Spec) { s.Classes[1].Price = 1e308 }},
		{"NaN price", func(s *Spec) { s.Classes[1].Price = math.NaN() }},
		{"container exceeds class", func(s *Spec) { s.Classes[1].Capacity = Resource{MemoryMB: 2048, VCores: 2} }},
		{"numNodes disagrees", func(s *Spec) { s.NumNodes = 4 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := twoClass()
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	// NumNodes matching the class sum is accepted (redundant but consistent).
	s := twoClass()
	s.NumNodes = 5
	if err := s.Validate(); err != nil {
		t.Errorf("consistent NumNodes rejected: %v", err)
	}
	// The largest price is accepted.
	s = twoClass()
	s.Classes[0].Price, s.Classes[1].Price = MaxPrice, MaxPrice
	if err := s.Validate(); err != nil {
		t.Errorf("price MaxPrice rejected: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	// Flat legacy form.
	flat := Default(4)
	b, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	var flatBack Spec
	if err := json.Unmarshal(b, &flatBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, flatBack) {
		t.Errorf("flat round trip: %+v != %+v", flatBack, flat)
	}
	if bytesContains(b, `"classes"`) {
		t.Errorf("flat form leaked a classes key: %s", b)
	}

	// Class form: flat per-node fields omitted, classes preserved.
	het := twoClass()
	b, err = json.Marshal(het)
	if err != nil {
		t.Fatal(err)
	}
	var hetBack Spec
	if err := json.Unmarshal(b, &hetBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(het, hetBack) {
		t.Errorf("class round trip: %+v != %+v", hetBack, het)
	}
	if err := hetBack.Validate(); err != nil {
		t.Errorf("round-tripped class spec invalid: %v", err)
	}
	for _, key := range []string{`"numNodes"`, `"cpuPerNode"`, `"diskPerNode"`} {
		if bytesContains(b, key) {
			t.Errorf("class form leaked flat key %s: %s", key, b)
		}
	}

	// A legacy payload without any class key still parses to a valid flat spec.
	legacy := `{"numNodes":2,"nodeCapacity":{"memoryMB":8192,"vcores":8},
		"mapContainer":{"memoryMB":2048,"vcores":1},"reduceContainer":{"memoryMB":2048,"vcores":2},
		"cpuPerNode":4,"diskPerNode":1,"diskMBps":100,"networkMBps":100}`
	var fromLegacy Spec
	if err := json.Unmarshal([]byte(legacy), &fromLegacy); err != nil {
		t.Fatal(err)
	}
	if err := fromLegacy.Validate(); err != nil {
		t.Errorf("legacy payload invalid: %v", err)
	}
	if fromLegacy.Heterogeneous() || fromLegacy.TotalNodes() != 2 {
		t.Errorf("legacy payload misparsed: %+v", fromLegacy)
	}

	// Mixed/invalid payloads parse but fail validation: a class table plus a
	// contradicting numNodes, and a class missing its bandwidths.
	for name, payload := range map[string]string{
		"contradicting numNodes": `{"numNodes":9,"mapContainer":{"memoryMB":2048,"vcores":1},
			"reduceContainer":{"memoryMB":2048,"vcores":2},
			"classes":[{"name":"a","count":2,"capacity":{"memoryMB":8192,"vcores":8},
				"cpus":4,"disks":1,"diskMBps":100,"networkMBps":100}]}`,
		"class missing bandwidth": `{"mapContainer":{"memoryMB":2048,"vcores":1},
			"reduceContainer":{"memoryMB":2048,"vcores":2},
			"classes":[{"name":"a","count":2,"capacity":{"memoryMB":8192,"vcores":8},"cpus":4,"disks":1}]}`,
	} {
		var s Spec
		if err := json.Unmarshal([]byte(payload), &s); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func bytesContains(b []byte, sub string) bool { return strings.Contains(string(b), sub) }

// perturb changes one leaf field of v (the first, for a struct) so that
// == no longer holds.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// TestSpecEqual changes every field of a flat spec and of each node class
// in turn, so a field added to Spec or NodeClass without a comparison in
// Equal fails here. Class slices compare by content, and −0 equals +0.
func TestSpecEqual(t *testing.T) {
	for _, base := range []Spec{Default(4), twoClass()} {
		same := base
		same.Classes = slices.Clone(base.Classes)
		if !base.Equal(same) {
			t.Errorf("%+v differs from its copy", base)
		}
		for i := range reflect.TypeFor[Spec]().NumField() {
			name := reflect.TypeFor[Spec]().Field(i).Name
			if name == "Classes" {
				continue
			}
			o := base
			perturb(reflect.ValueOf(&o).Elem().Field(i))
			if base.Equal(o) || o.Equal(base) {
				t.Errorf("specs differing in %s compare equal", name)
			}
		}
	}
	base := twoClass()
	for i := range reflect.TypeFor[NodeClass]().NumField() {
		o := base
		o.Classes = slices.Clone(base.Classes)
		perturb(reflect.ValueOf(&o.Classes[1]).Elem().Field(i))
		if base.Equal(o) {
			t.Errorf("specs differing in class field %s compare equal", reflect.TypeFor[NodeClass]().Field(i).Name)
		}
	}
	o := base
	o.Classes = base.Classes[:1]
	if base.Equal(o) {
		t.Error("specs with different class counts compare equal")
	}
	o.Classes = slices.Clone(base.Classes)
	o.Classes[1].Speed = math.Copysign(0, -1)
	base.Classes[1].Speed = 0
	if !base.Equal(o) {
		t.Error("−0 and +0 class speeds compare unequal")
	}
}
