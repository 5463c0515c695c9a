package timeline

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refBuild is Algorithm 1 with the plain earliest-free scan over a fully
// laid-out lane pool: the reference the Builder's lazy first-wave placement
// must reproduce bit for bit. Lane is the index in the lane-major pool.
func refBuild(in Input) (*Timeline, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tl := &Timeline{}
	scaleOn := func(scales []float64, node int) float64 {
		if scales == nil {
			return 1
		}
		return scales[node]
	}
	mapPool := newRefPool(in.NumNodes, in.MapSlotsPerNode, in.MapSlotsByNode)
	nodeOfMap := make([]int, len(in.Maps))
	firstMapEnd := math.Inf(1)
	for k, m := range in.Maps {
		i := mapPool.earliest()
		s := &mapPool.slots[i]
		start := s.free
		end := start + m.Duration*scaleOn(in.MapDurationScaleByNode, s.node)
		s.free = end
		nodeOfMap[k] = s.node
		tl.Tasks = append(tl.Tasks, Placed{Class: ClassMap, ID: m.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: end})
		firstMapEnd = math.Min(firstMapEnd, end)
		tl.LastMapEnd = math.Max(tl.LastMapEnd, end)
	}
	tl.Border = tl.LastMapEnd
	if in.SlowStart {
		tl.Border = firstMapEnd
	}
	redPool := newRefPool(in.NumNodes, in.ReduceSlotsPerNode, in.ReduceSlotsByNode)
	for _, r := range in.Reduces {
		i := redPool.earliest()
		s := &redPool.slots[i]
		start := math.Max(s.free, tl.Border)
		redScale := scaleOn(in.ReduceDurationScaleByNode, s.node)
		ssDur := r.ShuffleSortBase * redScale
		for k, m := range in.Maps {
			if nodeOfMap[k] != s.node {
				ssDur += m.ShuffleDuration / float64(len(in.Reduces))
			}
		}
		ssEnd := math.Max(start+ssDur, tl.LastMapEnd)
		mergeEnd := ssEnd + r.MergeDuration*redScale
		s.free = mergeEnd
		tl.Tasks = append(tl.Tasks,
			Placed{Class: ClassShuffleSort, ID: r.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: ssEnd},
			Placed{Class: ClassMerge, ID: r.ID, Node: s.node, Slot: s.lane, Lane: i, Start: ssEnd, End: mergeEnd})
	}
	for _, t := range tl.Tasks {
		tl.Makespan = math.Max(tl.Makespan, t.End)
	}
	slices.SortFunc(tl.Tasks, func(a, b Placed) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Class, b.Class), cmp.Compare(a.ID, b.ID))
	})
	return tl, nil
}

// refPool is every lane of a pool, laid out lane-major and free at 0.
type refPool struct {
	slots    []slot
	assigned []int
}

func newRefPool(nodes, perNode int, byNode []int) *refPool {
	p := &refPool{assigned: make([]int, nodes)}
	lanesOn := func(n int) int {
		if byNode == nil {
			return perNode
		}
		return byNode[n]
	}
	maxLanes := 0
	for n := 0; n < nodes; n++ {
		maxLanes = max(maxLanes, lanesOn(n))
	}
	for lane := 0; lane < maxLanes; lane++ {
		for n := 0; n < nodes; n++ {
			if lane < lanesOn(n) {
				p.slots = append(p.slots, slot{node: n, lane: lane})
			}
		}
	}
	return p
}

// earliest scans every lane for the one that frees first, breaking ties
// within tieEps by lower occupancy, then lower node ID.
func (p *refPool) earliest() int {
	best := 0
	for i := 1; i < len(p.slots); i++ {
		s, b := p.slots[i], p.slots[best]
		switch {
		case s.free < b.free-tieEps:
			best = i
		case math.Abs(s.free-b.free) <= tieEps:
			if p.assigned[s.node] < p.assigned[b.node] ||
				(p.assigned[s.node] == p.assigned[b.node] && s.node < b.node) {
				best = i
			}
		}
	}
	p.assigned[p.slots[best].node]++
	return best
}

// diffTimelines reports the first difference between two timelines, with
// every float compared by its bits.
func diffTimelines(got, want *Timeline) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Tasks) != len(want.Tasks) {
		return fmt.Errorf("%d tasks, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i, g := range got.Tasks {
		w := want.Tasks[i]
		if g.Class != w.Class || g.ID != w.ID || g.Node != w.Node || g.Slot != w.Slot || g.Lane != w.Lane ||
			!same(g.Start, w.Start) || !same(g.End, w.End) {
			return fmt.Errorf("task %d: %+v, want %+v", i, g, w)
		}
	}
	if !same(got.Makespan, want.Makespan) || !same(got.Border, want.Border) || !same(got.LastMapEnd, want.LastMapEnd) {
		return fmt.Errorf("makespan/border/last map end %v/%v/%v, want %v/%v/%v",
			got.Makespan, got.Border, got.LastMapEnd, want.Makespan, want.Border, want.LastMapEnd)
	}
	return nil
}

// checkReference builds in with b and with refBuild and fails t on any
// difference, including one input being rejected and not the other.
func checkReference(t *testing.T, b *Builder, in Input) {
	t.Helper()
	got, err := b.Build(in)
	want, werr := refBuild(in)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Build error %v, reference error %v", err, werr)
	}
	if err != nil {
		return
	}
	if err := diffTimelines(got, want); err != nil {
		t.Fatalf("%v\ninput %+v", err, in)
	}
}

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

// durationPalette mixes repeated values (exact ties), values at and around
// tieEps — the sub-tieEps ones trip the first-wave guard — and extremes.
var durationPalette = [...]float64{1, 1, 2, 3, 10, 0.5, 1e-13, 5e-13, 1e-12, 2e-12, 1e-300, 7.25, 100, 1e6}

// duration draws from the palette or, for high bytes, an arbitrary mixed
// value; zero bytes give 1.
func (s *byteSource) duration() float64 {
	c := s.next()
	if c < 128 {
		return durationPalette[int(c)%len(durationPalette)]
	}
	return float64(c-127) * 0.37
}

// input decodes one Input: 1–70 nodes with uniform or per-node lane
// counts, optional per-node duration scales, 1–40 maps with equal or mixed
// durations and 0–7 reducers, so the first wave may cover the whole job or
// hand the rest to the scan.
func (s *byteSource) input() Input {
	mode := s.next()
	nodes := 1 + int(s.next())%70
	in := Input{
		NumNodes:           nodes,
		MapSlotsPerNode:    1 + int(s.next())%8,
		ReduceSlotsPerNode: 1 + int(s.next())%4,
		SlowStart:          mode&1 == 0,
	}
	if mode&2 != 0 {
		in.MapSlotsByNode = make([]int, nodes)
		in.ReduceSlotsByNode = make([]int, nodes)
		for n := range nodes {
			in.MapSlotsByNode[n] = 1 + int(s.next())%8
			in.ReduceSlotsByNode[n] = 1 + int(s.next())%4
		}
	}
	if mode&4 != 0 {
		in.MapDurationScaleByNode = make([]float64, nodes)
		in.ReduceDurationScaleByNode = make([]float64, nodes)
		for n := range nodes {
			in.MapDurationScaleByNode[n] = s.duration()
			in.ReduceDurationScaleByNode[n] = s.duration()
		}
	}
	maps, reduces := 1+int(s.next())%40, int(s.next())%8
	equal := mode&8 != 0
	d := s.duration()
	for k := range maps {
		if !equal {
			d = s.duration()
		}
		in.Maps = append(in.Maps, MapTask{ID: k, Duration: d, ShuffleDuration: s.duration()})
	}
	for k := range reduces {
		in.Reduces = append(in.Reduces, ReduceTask{ID: k, ShuffleSortBase: s.duration(), MergeDuration: s.duration()})
	}
	return in
}

// The Builder matches the reference on random inputs, with one Builder
// reused across every shape, and the inputs reach each case the lazy pool
// distinguishes.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var b Builder
	var perNode, scaled, equal, tripped, scanned, firstWave int
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		src := byteSource(data)
		in := src.input()
		checkReference(t, &b, in)
		if in.MapSlotsByNode != nil {
			perNode++
		}
		if in.MapDurationScaleByNode != nil {
			scaled++
		}
		if in.Maps[0].Duration == in.Maps[len(in.Maps)-1].Duration && len(in.Maps) > 1 {
			equal++
		}
		switch p := &b.mapSlots; {
		case len(in.Maps) > p.total:
			scanned++
		case len(p.slots) > len(in.Maps):
			tripped++
		default:
			firstWave++
		}
	}
	for name, n := range map[string]int{"per-node lanes": perNode, "duration scales": scaled,
		"equal durations": equal, "guard tripped": tripped, "more maps than lanes": scanned, "first wave only": firstWave} {
		if n < 50 {
			t.Errorf("only %d of the inputs cover %s", n, name)
		}
	}
}

// FuzzBuildMatchesReference decodes two inputs from the bytes and builds
// both with one Builder: each must match the reference bit for bit.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 64, 7, 3, 27, 4, 1, 0})                 // 65 nodes × 8 lanes, 28 equal maps
	f.Add([]byte{8, 64, 7, 3, 27, 4, 6})                    // the same with 1e-13 maps
	f.Add([]byte{2, 2, 0, 0, 1, 0, 7, 3, 2, 1, 39, 7, 200}) // per-node lanes, more maps than lanes
	f.Add([]byte{5, 9, 2, 1, 6, 150, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		var b Builder
		checkReference(t, &b, src.input())
		checkReference(t, &b, src.input())
	})
}

// On the planner's largest first-wave shape — 65 nodes × 8 lanes, 28 maps
// and 4 reducers — the Builder stores only the lanes it places tasks on. A
// sub-tieEps map duration trips the guard, stores every lane and still
// matches the reference.
func TestFirstWaveStoresOnlyUsedLanes(t *testing.T) {
	in := Input{NumNodes: 65, MapSlotsPerNode: 8, ReduceSlotsPerNode: 8, SlowStart: true}
	for k := 0; k < 28; k++ {
		in.Maps = append(in.Maps, MapTask{ID: k, Duration: 30, ShuffleDuration: 2})
	}
	for k := 0; k < 4; k++ {
		in.Reduces = append(in.Reduces, ReduceTask{ID: k, ShuffleSortBase: 5, MergeDuration: 20})
	}
	var b Builder
	checkReference(t, &b, in)
	if got := len(b.mapSlots.slots); got != 28 {
		t.Errorf("stored %d map lanes, want 28", got)
	}
	if got := len(b.redSlots.slots); got != 4 {
		t.Errorf("stored %d reduce lanes, want 4", got)
	}

	in.Maps[5].Duration = 1e-13
	checkReference(t, &b, in)
	if got := len(b.mapSlots.slots); got != 65*8 {
		t.Errorf("after the guard tripped %d map lanes are stored, want all %d", got, 65*8)
	}
}

// retimed returns in with new times drawn from s and its shape kept: every
// duration of a kind scaled by one factor (as the model's outer rounds move
// a class's durations together), every duration redrawn, one duration
// changed, or nothing changed; the slow-start rule and the duration scales
// may change too.
func (s *byteSource) retimed(in Input) Input {
	out := in
	out.Maps, out.Reduces = slices.Clone(in.Maps), slices.Clone(in.Reduces)
	mode := s.next()
	switch mode % 4 {
	case 0:
		fm, fs, fr, fg := s.factor(), s.factor(), s.factor(), s.factor()
		for k := range out.Maps {
			out.Maps[k].Duration *= fm
			out.Maps[k].ShuffleDuration *= fs
		}
		for k := range out.Reduces {
			out.Reduces[k].ShuffleSortBase *= fr
			out.Reduces[k].MergeDuration *= fg
		}
	case 1:
		for k := range out.Maps {
			out.Maps[k].Duration, out.Maps[k].ShuffleDuration = s.duration(), s.duration()
		}
		for k := range out.Reduces {
			out.Reduces[k].ShuffleSortBase, out.Reduces[k].MergeDuration = s.duration(), s.duration()
		}
	case 2:
		if k := int(s.next()) % len(out.Maps); s.next()&1 == 0 || len(out.Reduces) == 0 {
			out.Maps[k].Duration = s.duration()
		} else {
			out.Reduces[k%len(out.Reduces)].MergeDuration = s.duration()
		}
	}
	if mode&4 != 0 {
		out.SlowStart = !out.SlowStart
	}
	if mode&8 != 0 && out.MapDurationScaleByNode != nil {
		out.MapDurationScaleByNode = slices.Clone(out.MapDurationScaleByNode)
		out.MapDurationScaleByNode[int(s.next())%in.NumNodes] = s.duration()
	}
	return out
}

// factor is a multiplier near 1, as a damped outer round applies, or
// exactly 1.
func (s *byteSource) factor() float64 {
	c := s.next()
	if c < 64 {
		return 1
	}
	return 0.75 + float64(c)/512
}

// checkRetime re-times in with b into dst and fails t unless the result
// matches the reference bit for bit (or both reject in), and unless a
// repeated placement really kept every task's identity, node and lane at
// its position. It returns Retime's report.
func checkRetime(t *testing.T, b *Builder, dst *Timeline, in Input) bool {
	t.Helper()
	prev := slices.Clone(dst.Tasks)
	repeated, err := b.Retime(in, dst)
	want, werr := refBuild(in)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Retime error %v, reference error %v", err, werr)
	}
	if err != nil {
		return false
	}
	if err := diffTimelines(dst, want); err != nil {
		t.Fatalf("%v\ninput %+v", err, in)
	}
	if repeated {
		for i, g := range dst.Tasks {
			p := prev[i]
			if g.Class != p.Class || g.ID != p.ID || g.Node != p.Node || g.Slot != p.Slot || g.Lane != p.Lane {
				t.Fatalf("repeated placement moved task %d: %+v, was %+v", i, g, p)
			}
		}
	}
	return repeated
}

// Re-timing matches a fresh Build on random round sequences: each input is
// built once, then re-timed through several rounds of moved durations,
// with an occasional change of shape between them. The sequences reach
// repeated placements, moved placements and the pool scan.
func TestRetimeMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var b Builder
	var dst Timeline
	var repeated, moved, scanned int
	for trial := 0; trial < 1500; trial++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		src := byteSource(data)
		in := src.input()
		if err := b.BuildInto(in, &dst); err != nil {
			continue
		}
		for round := 0; round < 4; round++ {
			if src.next() == 255 {
				in = src.input()
			} else {
				in = src.retimed(in)
			}
			if checkRetime(t, &b, &dst, in) {
				repeated++
			} else {
				moved++
			}
			if len(in.Maps) > b.mapSlots.total {
				scanned++
			}
		}
	}
	t.Logf("%d rounds repeated, %d moved or rebuilt, %d scanned", repeated, moved, scanned)
	for name, n := range map[string]int{"repeated": repeated, "moved or rebuilt": moved, "scanned": scanned} {
		if n < 200 {
			t.Errorf("only %d rounds are %s", n, name)
		}
	}
}

// FuzzRetimeMatchesBuild decodes an input and a run of rounds from the
// bytes: the first is built, each later one re-timed with the same
// Builder, and each must match the reference bit for bit.
func FuzzRetimeMatchesBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 64, 7, 3, 27, 4, 1, 0, 0, 200, 200, 200, 200}) // 65 nodes × 8 lanes, one class-wise round
	f.Add([]byte{2, 2, 0, 0, 1, 0, 7, 3, 2, 1, 39, 7, 200, 1})     // per-node lanes, more maps than lanes
	f.Add([]byte{8, 3, 1, 0, 20, 3, 6, 0, 2, 5, 1})                // 1e-13 maps trip the guard
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		var b Builder
		var dst Timeline
		in := src.input()
		if err := b.BuildInto(in, &dst); err != nil {
			return
		}
		for round := 0; round < 3; round++ {
			if src.next() == 255 {
				in = src.input()
			} else {
				in = src.retimed(in)
			}
			checkRetime(t, &b, &dst, in)
		}
	})
}

// A re-timed round of a warmed Builder allocates nothing.
func TestRetimeAllocatesNothing(t *testing.T) {
	in := Input{NumNodes: 8, MapSlotsPerNode: 8, ReduceSlotsPerNode: 4, SlowStart: true}
	for i := 0; i < 160; i++ {
		in.Maps = append(in.Maps, MapTask{ID: i, Duration: 30, ShuffleDuration: 1})
	}
	for i := 0; i < 8; i++ {
		in.Reduces = append(in.Reduces, ReduceTask{ID: i, ShuffleSortBase: 10, MergeDuration: 50})
	}
	var b Builder
	var dst Timeline
	if err := b.BuildInto(in, &dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		in.Maps[0].Duration += 0.5
		if _, err := b.Retime(in, &dst); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Retime allocated %.0f per round", allocs)
	}
}

// Retime rejects what Build rejects, with Build's error, whether or not
// the input has the recorded shape: bad times of that shape, and another
// shape whose IDs match the recorded tasks position by position but
// repeat within a class.
func TestRetimeRejectsWhatBuildRejects(t *testing.T) {
	in := Input{NumNodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Maps:    []MapTask{{ID: 0, Duration: 3, ShuffleDuration: 1}, {ID: 1, Duration: 4, ShuffleDuration: 1}},
		Reduces: []ReduceTask{{ID: 0, ShuffleSortBase: 2, MergeDuration: 5}},
	}
	nan := in
	nan.Maps = slices.Clone(in.Maps)
	nan.Maps[1].Duration = math.NaN()
	scale := in
	scale.MapDurationScaleByNode = []float64{1, -1}
	dup := in
	dup.Maps = []MapTask{{ID: 0, Duration: 3}, {ID: 1, Duration: 4}, {ID: 0, Duration: 3}, {ID: 0, Duration: 3}}
	dup.Reduces = nil
	for name, bad := range map[string]Input{"NaN duration": nan, "negative scale": scale, "repeated IDs": dup} {
		var b Builder
		var dst Timeline
		if err := b.BuildInto(in, &dst); err != nil {
			t.Fatal(err)
		}
		want := bad.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepts the input", name)
		}
		if _, err := b.Retime(bad, &dst); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Retime error %v, want %v", name, err, want)
		}
		if err := checkRetimeOK(&b, &dst, in); err != nil {
			t.Errorf("%s: after the rejected round: %v", name, err)
		}
	}
}

// checkRetimeOK re-times in and compares it with the reference.
func checkRetimeOK(b *Builder, dst *Timeline, in Input) error {
	if _, err := b.Retime(in, dst); err != nil {
		return err
	}
	want, err := refBuild(in)
	if err != nil {
		return err
	}
	return diffTimelines(dst, want)
}
