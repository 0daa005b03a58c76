package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"bubblezero/internal/experiments"
	"bubblezero/internal/report"
	"bubblezero/internal/sim"
	"bubblezero/internal/wsn"
)

// paper-eval: report.GenerateWith on a fresh experiments.Suite at the
// paper's five-hour networking horizon — every figure, the exergy audit
// and the ablations, the way a reproduction user regenerates §V. One
// operation is one generation; throughput is generations per second.
const (
	paperHours     = 5.0
	paperWarmHours = 0.25 // set-up generates one short report to warm the process
	desyncHorizon  = 30 * time.Minute
)

// Set-up is repeated and its median reported: at least minSetups times,
// and more while the repetitions together have taken under setupBudget.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

func needSetup(done int, spent time.Duration) bool {
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// generateOnce runs one cold generation and returns its duration and the
// report's SHA-256.
func generateOnce(ctx context.Context, rc runCfg, hours float64) (time.Duration, [32]byte, error) {
	suite := experiments.NewSuite(rc.lanes)
	h := sha256.New()
	t0 := time.Now()
	err := report.GenerateWith(ctx, suite, rc.seed, hours, h)
	d := time.Since(t0)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return d, sum, err
}

func runPaperEval(ctx context.Context, rc runCfg) (*result, error) {
	rep := &result{
		tput:  "report generations/s at the median generation time",
		latOf: "one cold report.GenerateWith at 5 h",
		lanes: 1,
	}
	for t0 := time.Now(); needSetup(len(rep.setup), time.Since(t0)); {
		d, _, err := generateOnce(ctx, rc, paperWarmHours)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setup = append(rep.setup, d.Seconds())
	}

	budget := rc.seconds
	if rc.traced {
		budget /= 2
	}
	lat := &dist{}
	var first [32]byte
	// Each generation's live heap peaks once, at whichever GC happens to
	// mark closest to its largest live set; the median over generations of
	// those peaks is steady where the run's single maximum is not.
	var peaks []float64
	t0 := time.Now()
	n := 0
	for ; n == 0 || time.Since(t0) < budget; n++ {
		hw := startHeapWatch()
		d, sum, err := generateOnce(ctx, rc, paperHours)
		peaks = append(peaks, float64(hw.Stop()))
		if n == 0 {
			first = sum
		}
		if !rep.tally.record(err) {
			lat.miss()
			continue
		}
		if rep.tally.check(sum == first, "paper-eval: report SHA-256 %x differs from the run's first %x for seed %d", sum[:6], first[:6], rc.seed) {
			lat.add(float64(d) / float64(time.Millisecond))
		} else {
			lat.miss()
		}
	}
	rep.window = time.Since(t0)
	rep.heapPeak = uint64(median(peaks))
	rep.lat = lat
	rep.throughput = 1000 / lat.percentile(50)

	violations, err := checkFig10(ctx, rc, rep)
	if err != nil {
		return nil, err
	}

	evalS := lat.percentile(50) / 1000
	rep.named = []metric{
		{Name: "eval_s", Value: evalS, Unit: "s", N: lat.n(), Note: "median cold generation"},
		{Name: "fig10_bounds_violated", Value: float64(violations), Unit: "count", N: 1, Note: fmt.Sprintf("paper bounds missed by the seed-%d Fig10 trial (reported, not a failure)", rc.seed)},
		{Name: "setup_s", Value: median(rep.setup), Unit: "s", N: len(rep.setup)},
		{Name: "heap_peak_mb", Value: float64(rep.heapPeak) / 1e6, Unit: "MB", N: len(peaks), Note: "median over generations of each one's live-heap peak"},
	}
	if rc.traced {
		if err := tracePaperEval(ctx, rc, rep, rc.seconds-budget, evalS, first); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// goldenEpochPath is the pinned Fig10 epoch, relative to the repository
// root the benchmark runs from.
const goldenEpochPath = "internal/experiments/testdata/golden_epoch.json"

// checkFig10 checks the Fig10 trial two ways. The trial at the golden
// epoch's seed must pass CheckFig10Bounds and reproduce the pinned metrics
// and network step count exactly; those bounds are the acceptance envelope
// pinned for that seed. The trial at the run's own seed is checked against
// the same bounds too, but a miss there is a property of the model at that
// seed, not a broken output: it is counted, printed, and returned, and
// does not fail the run.
func checkFig10(ctx context.Context, rc runCfg, rep *result) (violations int, err error) {
	golden, err := experiments.LoadGoldenEpoch(goldenEpochPath)
	if err != nil {
		return 0, err
	}
	g, err := experiments.Fig10(ctx, golden.Seed)
	if rep.tally.record(err) {
		bounds := experiments.CheckFig10Bounds(g.Metrics())
		rep.tally.check(bounds == nil, "paper-eval: golden seed %d: %v", golden.Seed, bounds)
		rep.tally.check(g.Metrics() == golden.Metrics && g.NetworkSteps == golden.NetworkSteps,
			"paper-eval: golden seed %d Fig10 metrics %+v (%d network steps) differ from the pinned %+v (%d)",
			golden.Seed, g.Metrics(), g.NetworkSteps, golden.Metrics, golden.NetworkSteps)
	}
	r, err := experiments.Fig10(ctx, rc.seed)
	if !rep.tally.record(err) {
		return 0, nil
	}
	if bounds := experiments.CheckFig10Bounds(r.Metrics()); bounds != nil {
		violations = strings.Count(bounds.Error(), "outside [")
		rep.notes = append(rep.notes, fmt.Sprintf("Fig10 at seed %d: %v", rc.seed, bounds))
	}
	return violations, nil
}

// paperSections are the spans of one traced breakdown, in call order.
var paperSections = []string{
	"experiments.net_scenario",
	"experiments.fig10",
	"experiments.fig11",
	"experiments.fig12",
	"experiments.fig13to15",
	"experiments.exergy",
	"experiments.ablations",
	"report.render",
}

// tracePaperEval runs traced iterations. Each one makes a cold
// generation under a report.generate span (traced against untraced
// generations gives the tracing overhead), then a breakdown on a second
// fresh suite: the calls GenerateWith makes, one after another, each in
// its own span, and finally report.render — GenerateWith on the now-warm
// suite, whose scenario cache already holds the five-hour simulation.
func tracePaperEval(ctx context.Context, rc runCfg, rep *result, budget time.Duration, untracedS float64, want [32]byte) error {
	tr := newTracer()
	rtBefore := readRT()
	d := time.Duration(paperHours * float64(time.Hour))
	var (
		genS, busy               []float64
		skipFrac, stepsPerTick   []float64
		sent, collided, delivery []float64
		cpuBefore                time.Duration
		fig10                    *experiments.Fig10Result
		desync                   *experiments.DesyncResult
		sectionS                 = map[string][]float64{}
	)
	t0 := time.Now()
	for i := int64(0); i == 0 || time.Since(t0) < budget; i++ {
		root := tr.begin(0, i, 0, "bzbench.eval")
		cpuBefore = cpuTime()
		gd, err := tr.call(0, i, root, "report.generate", func(int) error {
			_, sum, err := generateOnce(ctx, rc, paperHours)
			if err == nil && sum != want {
				err = fmt.Errorf("paper-eval: traced report SHA-256 differs from the untraced one")
			}
			return err
		})
		tr.end(root)
		if !rep.tally.record(err) {
			continue
		}
		genS = append(genS, gd.Seconds())
		busy = append(busy, (cpuTime()-cpuBefore).Seconds()/(gd.Seconds()*float64(rc.lanes)))

		suite := experiments.NewSuite(rc.lanes)
		root = tr.begin(0, i, 0, "bzbench.breakdown")
		calls := []func() error{
			func() error { _, err := suite.NetScenario(ctx, rc.seed, d); return err },
			func() (err error) { fig10, err = experiments.Fig10(ctx, rc.seed); return },
			func() error { _, err := experiments.Fig11(ctx, rc.seed); return err },
			func() error { _, err := suite.Fig12(ctx, rc.seed, d, nil); return err },
			func() error {
				if _, err := suite.Fig13(ctx, rc.seed, d); err != nil {
					return err
				}
				if _, err := suite.Fig14(ctx, rc.seed, d); err != nil {
					return err
				}
				_, err := suite.Fig15(ctx, rc.seed, d)
				return err
			},
			func() error { _, err := experiments.ExergyAudit(ctx, rc.seed); return err },
			func() (err error) {
				if _, err = suite.AblationSupplyTemp(ctx, rc.seed, nil); err != nil {
					return err
				}
				if _, err = suite.AblationNoCoupling(ctx, rc.seed); err != nil {
					return err
				}
				desync, err = suite.AblationDesync(ctx, rc.seed, desyncHorizon)
				return err
			},
			func() error {
				h := sha256.New()
				if err := report.GenerateWith(ctx, suite, rc.seed, paperHours, h); err != nil {
					return err
				}
				var sum [32]byte
				copy(sum[:], h.Sum(nil))
				if sum != want {
					return fmt.Errorf("paper-eval: warm-suite report SHA-256 differs from the cold one")
				}
				return nil
			},
		}
		ok := true
		for k, call := range calls {
			sd, err := tr.call(0, i, root, paperSections[k], func(int) error { return call() })
			if !rep.tally.record(err) {
				ok = false
				break
			}
			sectionS[paperSections[k]] = append(sectionS[paperSections[k]], sd.Seconds())
		}
		tr.end(root)
		if !ok {
			continue
		}
		skip, steps := schedCounts(fig10.SchedStats)
		skipFrac = append(skipFrac, skip)
		stepsPerTick = append(stepsPerTick, steps)
		sent = append(sent, float64(desync.WithDesync.Sent))
		collided = append(collided, float64(desync.WithDesync.Collided))
		delivery = append(delivery, desync.WithDesync.DeliveryRate())
	}
	wall := time.Since(t0)
	all := rtBefore.to(readRT())
	rep.spans = tr.snapshot()
	rep.budget = wall
	if len(genS) == 0 {
		return nil
	}
	rep.setLayer("gc.cpu_frac", all.gcCPUFrac, 1, "over the traced half")
	rep.setLayer("gc.cycles", float64(all.gcCycles), 1, "over the traced half")
	for _, name := range paperSections {
		rep.setLayer(name+"_s", median(sectionS[name]), len(sectionS[name]), "")
	}
	rep.setLayer("runner.pool_busy_frac", median(busy), len(busy), "process CPU / (wall x pool workers) during report.generate")
	rep.setLayer("sim.cadenced_skip_frac", median(skipFrac), len(skipFrac), "Fig10 trial, Engine.StepStats")
	rep.setLayer("sim.steps_per_building_tick", median(stepsPerTick), len(stepsPerTick), "Fig10 trial, Engine.StepStats")
	rep.setLayer("wsn.sent", median(sent), len(sent), "desync ablation arm, Network.Stats")
	rep.setLayer("wsn.collided", median(collided), len(collided), "desync ablation arm, Network.Stats")
	rep.setLayer("wsn.delivery_frac", median(delivery), len(delivery), "desync ablation arm, Network.Stats")
	for name, vals := range map[string][]float64{
		"sim.cadenced_skip_frac": skipFrac, "sim.steps_per_building_tick": stepsPerTick,
		"wsn.sent": sent, "wsn.collided": collided, "wsn.delivery_frac": delivery,
	} {
		if len(vals) > 0 {
			rep.flagUnlessEqual(name, vals)
		}
	}
	tracedS := median(genS)
	rep.setLayer("tracing.overhead_frac", (tracedS-untracedS)/untracedS, len(genS), "")
	rep.overAbs = fmt.Sprintf("report.generate %.4f s traced vs eval_s %.4f s untraced (%+.4f s)", tracedS, untracedS, tracedS-untracedS)
	return nil
}

// schedCounts reduces an engine's step/skip counters to the share of
// cadenced component-ticks skipped and the component steps per tick.
func schedCounts(stats []sim.ComponentStats) (skipFrac, stepsPerTick float64) {
	var cadSteps, cadSkipped, steps, ticks uint64
	for _, cs := range stats {
		if cs.Kind == "cadenced" {
			cadSteps += cs.Steps
			cadSkipped += cs.Skipped
		}
		steps += cs.Steps
		ticks = max(ticks, cs.Steps+cs.Skipped)
	}
	if cadSteps+cadSkipped > 0 {
		skipFrac = float64(cadSkipped) / float64(cadSteps+cadSkipped)
	}
	if ticks > 0 {
		stepsPerTick = float64(steps) / float64(ticks)
	}
	return skipFrac, stepsPerTick
}

// netCounts sums sensor-network counters over several buildings.
func netCounts(stats []wsn.Stats) (sent, collided int, delivery float64) {
	var delivered int
	for _, s := range stats {
		sent += s.Sent
		collided += s.Collided
		delivered += s.Delivered
	}
	if sent > 0 {
		delivery = float64(delivered) / float64(sent)
	}
	return sent, collided, delivery
}
