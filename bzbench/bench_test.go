package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 1; n <= 20000; n++ {
		p := tailPercentile(n)
		if p != 50 && n-rankOf(p, n) < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d beyond", n, p, n-rankOf(p, n))
		}
		for _, c := range tailCandidates {
			if c > p && n-rankOf(c, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%v but p%v also leaves %d beyond", n, p, c, n-rankOf(c, n))
			}
		}
	}
}

func TestDistPercentileNearestRank(t *testing.T) {
	d := &dist{}
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := d.percentile(p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN((&dist{}).percentile(50)) {
		t.Error("empty distribution should report NaN")
	}
}

func TestFailuresAndRefusalsCountAsMisses(t *testing.T) {
	var tl tally
	d := &dist{}
	outcomes := []error{nil, errors.New("connection reset"), nil}
	for _, err := range outcomes {
		if tl.record(err) {
			d.add(1)
		} else {
			d.miss()
		}
	}
	// A refusal is an answer with the wrong status: checkAnswer rejects it.
	_, refused := checkAnswer(op{kind: "query", method: http.MethodGet, path: "/q"}, http.StatusServiceUnavailable, nil, nil)
	if refused == nil {
		t.Fatal("a 503 answer passed the check")
	}
	if tl.record(refused) {
		t.Fatal("a refusal was recorded as a success")
	}
	d.miss()
	tl.check(false, "wrong output")
	if a, f := tl.counts(); a != 5 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", a, f)
	}
	if got := tl.errorRate(); got != 3.0/5 {
		t.Fatalf("error rate %v, want 0.6", got)
	}
	// Two of four latency samples are misses: the median is beyond any limit.
	if got := d.percentile(75); !math.IsInf(got, 1) {
		t.Fatalf("p75 with misses in the top half = %v, want +Inf", got)
	}
	if got := d.percentile(50); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
}

func sp(id, parent int, start, end int64) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 40),
		sp(3, 1, 30, 60),  // overlaps span 2: [10, 60] is covered once
		sp(4, 1, 90, 120), // runs past its parent: only [90, 100] counts
		sp(5, 2, 15, 35),  // a grandchild is charged to its own parent only
		sp(6, 0, 200, 250),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 10, 3: 30, 4: 30, 5: 20, 6: 50}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestSelfTimeNestedAndIdenticalChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 20, 80),
		sp(3, 1, 20, 80), // identical interval
		sp(4, 1, 30, 50), // inside span 2's interval
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Fatalf("parent self time %v, want 40", got)
	}
}

func TestLayerTableSumsToBudget(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 50},
		{ID: 3, Lane: 1, Name: "b", Start: 0, End: 70},
	}
	rows, ok := layerTable(spans, 300)
	if !ok {
		t.Fatal("spans fit the budget but the table reports overflow")
	}
	var sum time.Duration
	got := map[string]time.Duration{}
	for _, r := range rows {
		sum += r.Self
		got[r.Name] = r.Self
	}
	if sum != 300 {
		t.Fatalf("rows sum to %v, want the 300 budget", sum)
	}
	if want := map[string]time.Duration{"a": 60, "b": 110, unattributed: 130}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if _, ok := layerTable(spans, 100); ok {
		t.Fatal("spans exceeding the budget were not reported")
	}
}

func TestOpGenIsSeeded(t *testing.T) {
	gen := &opGen{id: "t1", buildings: 7, series: []string{"a", "b", "c"}, historyS: 6144,
		mix: opMix{query: 50, csv: 10, series: 10, status: 10, event: 20}}
	draw := func(seed uint64) []op {
		rng := rand.New(rand.NewPCG(seed, 0))
		var ops []op
		for i := 0; i < 200; i++ {
			ops = append(ops, gen.next(rng))
		}
		return ops
	}
	a, b := draw(9), draw(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different requests")
	}
	if reflect.DeepEqual(a, draw(10)) {
		t.Fatal("different seeds drew the same requests")
	}
	kinds := map[string]bool{}
	for _, o := range a {
		kinds[o.kind] = true
		if o.kind == "query" {
			if o.fromS < 0 || o.toS > gen.historyS || o.toS < o.fromS {
				t.Fatalf("query window [%d, %d] outside the history", o.fromS, o.toS)
			}
			if want := int((o.toS-o.fromS)/o.step) + 1; o.want != want {
				t.Fatalf("query wants %d buckets, window gives %d", o.want, want)
			}
		}
	}
	if len(kinds) != 5 {
		t.Fatalf("drew kinds %v, want all five", kinds)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark: ", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program has %d workloads", names, len(workloads))
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program %v", e2e, endToEnd)
	}
	var layers []metricDef
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, program %v", layers, perLayer)
	}
	r := &result{setup: []float64{1}, lat: &dist{}}
	r.lat.add(1)
	var gated []metricDef
	for _, m := range r.gated() {
		gated = append(gated, metricDef{m.Name, m.Unit})
	}
	sortDefs := func(d []metricDef) { sort.Slice(d, func(i, j int) bool { return d[i].name < d[j].name }) }
	sortDefs(gated)
	want := append([]metricDef(nil), endToEnd...)
	sortDefs(want)
	if !reflect.DeepEqual(gated, want) {
		t.Errorf("gated() reports %v, want %v", gated, want)
	}
}

func TestMedianWindowRate(t *testing.T) {
	// Four 1 s windows with 10, 10, 40 and 10 events: a burst in one
	// window does not move the median.
	var ev []float64
	for k, n := range []int{10, 10, 40, 10} {
		for i := 0; i < n; i++ {
			ev = append(ev, float64(k)+float64(i)/float64(n))
		}
	}
	if got := medianWindowRate(ev, 4*time.Second); got != 10 {
		t.Fatalf("median window rate %v, want 10", got)
	}
	if got := medianWindowRate(ev[:5], 500*time.Millisecond); got != 10 {
		t.Fatalf("rate without a whole window %v, want 10", got)
	}
}

func TestMedianWindowSlope(t *testing.T) {
	pts := [][2]float64{{0.1, 0}, {1.9, 180}, {2.5, 250}, {3.5, 350}, {4.2, 999}}
	// Windows [0,2) slope 100, [2,4) slope 100, [4,6) one point: skipped.
	if got := medianWindowSlope(pts, 6*time.Second, 2*time.Second); got != 100 {
		t.Fatalf("median slope %v, want 100", got)
	}
}
