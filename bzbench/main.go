// Command bzbench is the BubbleZERO end-to-end benchmark. It drives one
// named workload through the layers' public APIs, checks every output,
// counts failures against attempts, and prints each metric by name with
// its unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bzbench --workload fleet-batch --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd below).
// With --trace 1 the run measures the first half of its time untraced and
// the second half traced, records a span around every call into a layer,
// writes the spans to .bench_out/, prints a per-layer self-time table, and
// reports the per-layer metrics (perLayer below).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  time.Duration // measured time of the whole run
	traced   bool
	lanes    int // load goroutines, shards and pool workers: at most NumCPU
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Each is
// defined on every workload; what "operation" means is the workload's
// (see the workload files and README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// a workload never calls reports 0 and is marked n/a in the table.
var perLayer = []metricDef{
	{"experiments.net_scenario_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12_s", "s"},
	{"experiments.fig13to15_s", "s"},
	{"experiments.exergy_s", "s"},
	{"experiments.ablations_s", "s"},
	{"report.render_s", "s"},
	{"runner.pool_busy_frac", "frac"},
	{"fleet.new_s", "s"},
	{"fleet.epoch_ms_p50", "ms"},
	{"fleet.epoch_ms_p99", "ms"},
	{"fleet.allocs_per_epoch", "count"},
	{"fleet.bytes_per_building", "B"},
	{"alloc_bytes_per_building_tick", "B"},
	{"gc.cpu_frac", "frac"},
	{"gc.cycles", "count"},
	{"sim.cadenced_skip_frac", "frac"},
	{"sim.steps_per_building_tick", "count"},
	{"wsn.sent", "count"},
	{"wsn.collided", "count"},
	{"wsn.delivery_frac", "frac"},
	{"trace.query_us_p50", "us"},
	{"trace.query_us_p99", "us"},
	{"twin.view_ms_p50", "ms"},
	{"twin.view_ms_p99", "ms"},
	{"fleet.apply_us", "us"},
	{"fleet.export_state_s", "s"},
	{"twin.write_snapshot_s", "s"},
	{"twin.snapshot_bytes", "B"},
	{"twin.read_snapshot_s", "s"},
	{"fleet.restore_state_s", "s"},
	{"twin.restore_twin_s", "s"},
	{"tracing.overhead_frac", "frac"},
	{"tracing.unattributed_frac", "frac"},
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // how it was measured, when the name alone does not say
}

// result is what a workload hands back to main.
type result struct {
	tally tally

	// Gated end-to-end inputs.
	setup      []float64 // seconds, one per set-up
	heapPeak   uint64    // bytes
	throughput float64   // operations per second
	tput       string    // what an operation is, for the human report
	lat        *dist     // per-operation latency in ms
	latOf      string    // what a latency sample times
	window     time.Duration

	// named are the workload's end-to-end metrics under their own names.
	named []metric

	// Traced runs only.
	layer   map[string]metric
	flags   []string // exact counts that did not repeat
	notes   []string // findings that are not failures
	spans   []span
	budget  time.Duration // lanes x traced wall time
	lanes   int
	overAbs string // tracing overhead in the workload's own terms
}

func (r *result) setLayer(name string, v float64, n int, note string) {
	if r.layer == nil {
		r.layer = map[string]metric{}
	}
	unit := ""
	for _, d := range perLayer {
		if d.name == name {
			unit = d.unit
		}
	}
	if unit == "" {
		panic("bzbench: undeclared per-layer metric " + name)
	}
	r.layer[name] = metric{Name: name, Value: v, Unit: unit, N: n, Note: note}
}

// flagUnlessEqual flags an exact count that differs between repetitions
// of the same seeded work.
func (r *result) flagUnlessEqual(name string, vals []float64) {
	for _, v := range vals[1:] {
		if math.Float64bits(v) != math.Float64bits(vals[0]) {
			r.flags = append(r.flags, fmt.Sprintf("%s differs across repetitions: %v", name, vals))
			return
		}
	}
}

type workloadFn func(ctx context.Context, rc runCfg) (*result, error)

var workloads = map[string]workloadFn{
	"paper-eval":  runPaperEval,
	"fleet-batch": runFleetBatch,
	"twin-read":   runTwinRead,
	"twin-live":   runTwinLive,
}

// hardLimit bounds a whole run, set-up and checks included.
const hardLimit = 170 * time.Second

// outDir receives the span and exact-count files of traced runs, relative
// to the directory the benchmark runs in.
const outDir = ".bench_out"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bzbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: paper-eval, fleet-batch, twin-read or twin-live")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *seconds > 120 {
		return fmt.Errorf("--seconds must be in (0, 120], got %v", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	rc := runCfg{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		lanes:    min(2, runtime.NumCPU()),
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	rep, err := wl(ctx, rc)
	if err != nil {
		return fmt.Errorf("%s: %w", rc.workload, err)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%s: run exceeded %v", rc.workload, hardLimit)
	}

	out := os.Stdout
	fmt.Fprintf(out, "workload %s seed %d seconds %.1f trace %v lanes %d\n", rc.workload, rc.seed, rc.seconds.Seconds(), rc.traced, rc.lanes)
	printMetrics(out, "e2e", rep.named)
	attempted, failed := rep.tally.counts()
	fmt.Fprintf(out, "e2e   %-34s %14.6g %-6s (n=%d attempted, %d failed)\n", "error_rate", rep.tally.errorRate(), "frac", attempted, failed)
	for _, e := range rep.tally.errs {
		fmt.Fprintf(out, "FAIL  %s\n", e)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "NOTE  %s\n", strings.ReplaceAll(n, "\n", " "))
	}

	metrics := map[string]any{}
	if !rc.traced {
		gated := rep.gated()
		printMetrics(out, "gated", gated)
		for _, m := range gated {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	} else {
		rows, ok := layerTable(rep.spans, rep.budget)
		printLayerTable(out, rc.workload, rows, rep.budget, rep.lanes)
		if !ok {
			rep.flags = append(rep.flags, "spans claim more time than the lanes' wall time")
		}
		var attributed time.Duration
		for _, r := range rows {
			if r.Name != unattributed {
				attributed += r.Self
			}
		}
		if rep.budget > 0 {
			rep.setLayer("tracing.unattributed_frac", 1-attributed.Seconds()/rep.budget.Seconds(), len(rep.spans), "")
		}
		fmt.Fprintf(out, "tracing overhead: %s\n", rep.overAbs)
		layers := make([]metric, 0, len(perLayer))
		for _, d := range perLayer {
			m, ok := rep.layer[d.name]
			if !ok {
				m = metric{Name: d.name, Unit: d.unit, Note: "n/a: not exercised by this workload"}
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				rep.flags = append(rep.flags, fmt.Sprintf("%s had no valid samples (%v); reported as 0", m.Name, m.Value))
				m.Value = 0
			}
			layers = append(layers, m)
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		printMetrics(out, "layer", layers)
		if err := compareCounts(filepath.Join(outDir, fmt.Sprintf("counts-%s-seed%d.json", rc.workload, rc.seed)), rep); err != nil {
			return fmt.Errorf("exact counts: %w", err)
		}
		for _, f := range rep.flags {
			fmt.Fprintf(out, "FLAG  %s\n", f)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rep.spans), path)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// exactCounts are the per-layer metrics that must repeat bit for bit
// between two traced runs with the same seed.
var exactCounts = []string{
	"sim.cadenced_skip_frac", "sim.steps_per_building_tick",
	"wsn.sent", "wsn.collided", "wsn.delivery_frac",
	"twin.snapshot_bytes", "fleet.allocs_per_epoch",
}

// compareCounts flags every exact count that differs from the one the
// previous traced run with the same workload and seed stored at path, then
// stores this run's counts there.
func compareCounts(path string, rep *result) error {
	cur := map[string]float64{}
	for _, name := range exactCounts {
		if m, ok := rep.layer[name]; ok {
			cur[name] = m.Value
		}
	}
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, name := range exactCounts {
			p, okP := prev[name]
			c, okC := cur[name]
			if okP && okC && math.Float64bits(p) != math.Float64bits(c) {
				rep.flags = append(rep.flags, fmt.Sprintf("%s = %v, the previous run with this seed had %v", name, c, p))
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	raw, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// gated computes the end-to-end metrics every workload reports.
func (r *result) gated() []metric {
	p, tail := r.lat.tail()
	// A miss is +Inf in the distribution; JSON needs a number, and no
	// latency can exceed the measured window, so report the window.
	finite := func(v float64) float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return float64(r.window) / float64(time.Millisecond)
		}
		return v
	}
	n := r.lat.n()
	return []metric{
		{Name: "setup_s", Value: median(r.setup), Unit: "s", N: len(r.setup), Note: "median set-up"},
		{Name: "heap_peak_mb", Value: float64(r.heapPeak) / 1e6, Unit: "MB", N: 1, Note: "peak live-object heap while measuring"},
		{Name: "throughput_per_s", Value: r.throughput, Unit: "1/s", N: n, Note: r.tput},
		{Name: "latency_ms_p50", Value: finite(r.lat.percentile(50)), Unit: "ms", N: n, Note: r.latOf},
		{Name: "latency_ms_tail", Value: finite(tail), Unit: "ms", N: n, Note: fmt.Sprintf("p%g, %d samples beyond", p, n-rankOf(p, n))},
	}
}

func printMetrics(out *os.File, kind string, ms []metric) {
	sorted := append([]metric(nil), ms...)
	if kind == "e2e" {
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	}
	for _, m := range sorted {
		note := ""
		if m.Note != "" {
			note = " " + strings.TrimSpace(m.Note)
		}
		fmt.Fprintf(out, "%-5s %-34s %14.6g %-6s (n=%d)%s\n", kind, m.Name, m.Value, m.Unit, m.N, note)
	}
}
