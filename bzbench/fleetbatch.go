package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fleet"
	"bubblezero/internal/runner"
	"bubblezero/internal/sim"
	"bubblezero/internal/wsn"
)

// fleet-batch: a fleet.DefaultConfig fleet of 1000 buildings stepped
// through fleet.RunTicks, tracing and twin bypassed. The run is a series
// of passes over one fixed simulated horizon: each pass builds a fresh
// fleet (set-up: fleet.New plus one warm-up epoch), then times
// fleetPassEpochs epochs, so every pass — on every commit — covers the
// same simulated minutes. One operation is one building-tick; a latency
// sample is one epoch.
const (
	fleetBuildings  = 1000
	fleetEpochTicks = 128
	fleetPassEpochs = 12
	fleetWarmTicks  = 128
	fleetCountEvery = 100 // buildings 0, 100, 200, … expose their counters
	minPasses       = 2
)

// Seed tags: each input stream the benchmark derives from --seed.
const (
	tagFleet = iota + 1
	tagQueries
)

func fleetConfig(rc runCfg) fleet.Config {
	cfg := fleet.DefaultConfig(fleetBuildings)
	cfg.Shards = rc.lanes
	cfg.Seed = runner.DeriveSeed(rc.seed, tagFleet)
	return cfg
}

// passResult is one pass's measurements and check inputs.
type passResult struct {
	setup, newS float64
	epochs      []float64 // ms
	rt          rtDelta   // over the timed epochs only
	bytesPer    int64
	digest      uint64
	counts      [5]float64 // skip frac, steps/building-tick, sent, collided, delivery
}

func fleetPass(ctx context.Context, rc runCfg, cfg fleet.Config, tr *tracer, req int64, rep *result) (*passResult, error) {
	res := &passResult{}
	root := tr.begin(0, req, 0, "bzbench.pass")
	defer tr.end(root)
	t0 := time.Now()
	var fl *fleet.Fleet
	d, err := tr.call(0, req, root, "fleet.new", func(int) (err error) {
		fl, err = fleet.New(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.newS = d.Seconds()
	if _, err := tr.call(0, req, root, "fleet.warmup", func(int) error { return fl.RunTicks(ctx, fleetWarmTicks) }); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setup = time.Since(t0).Seconds()
	res.bytesPer = fl.BytesPerBuilding()

	for e := 0; e < fleetPassEpochs; e++ {
		before := readRT()
		d, err := tr.call(0, req, root, "fleet.run_ticks", func(int) error { return fl.RunTicks(ctx, fleetEpochTicks) })
		res.rt.add(before.to(readRT()))
		if !rep.tally.record(err) {
			return res, nil
		}
		res.epochs = append(res.epochs, float64(d)/float64(time.Millisecond))
	}

	_, err = tr.call(0, req, root, "bzbench.check", func(id int) error {
		res.digest = statsDigest(fl.Stats())
		var sched []sim.ComponentStats
		var nets []wsn.Stats
		sampled := 0
		for i := 0; i < fl.Buildings(); i += fleetCountEvery {
			sched = append(sched, fl.Building(i).Engine().StepStats()...)
			nets = append(nets, fl.Building(i).Network().Stats())
			sampled++
		}
		skip, steps := schedCounts(sched)
		sent, collided, delivery := netCounts(nets)
		res.counts = [5]float64{skip, steps / float64(sampled), float64(sent), float64(collided), delivery}
		_, err := tr.call(0, req, id, "fleet.standalone", func(int) error {
			alone, err := fleet.Standalone(cfg, 0)
			if err != nil {
				return err
			}
			if err := alone.Engine().RunTicks(ctx, fl.Ticks()); err != nil {
				return err
			}
			if a, b := buildingDigest(fl.Building(0)), buildingDigest(alone); a != b {
				return fmt.Errorf("fleet-batch: building 0 digest %x differs from fleet.Standalone %x after %d ticks", a, b, fl.Ticks())
			}
			return nil
		})
		return err
	})
	rep.tally.record(err)
	return res, nil
}

// statsDigest hashes the exact bits of a fleet.Stats.
func statsDigest(st fleet.Stats) uint64 {
	return bitsDigest(float64(st.Buildings), float64(st.TicksRun), st.AvgTempC, st.MinTempC, st.MaxTempC,
		st.AvgDewC, st.AvgCOP, float64(st.COPSamples), st.CondensationS)
}

// buildingDigest hashes the exact bits of a building's observable state.
func buildingDigest(sys *core.System) uint64 {
	ns := sys.Network().Stats()
	return bitsDigest(sys.Room().AverageT(), sys.Room().AverageDewPoint(), sys.COPTotal().Value(),
		sys.CondensationSeconds(), float64(ns.Sent), float64(ns.Delivered), float64(ns.Collided), ns.TotalDelayS)
}

func bitsDigest(vals ...float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// fleetPhase runs passes until budget has elapsed (at least minPasses).
func fleetPhase(ctx context.Context, rc runCfg, tr *tracer, budget time.Duration, rep *result) ([]*passResult, time.Duration, error) {
	cfg := fleetConfig(rc)
	var passes []*passResult
	t0 := time.Now()
	for req := int64(0); len(passes) < minPasses || time.Since(t0) < budget; req++ {
		p, err := fleetPass(ctx, rc, cfg, tr, req, rep)
		if err != nil {
			return nil, 0, err
		}
		passes = append(passes, p)
	}
	wall := time.Since(t0)
	for _, p := range passes[1:] {
		rep.tally.check(p.digest == passes[0].digest, "fleet-batch: fleet.Stats digest %x differs from the first pass's %x", p.digest, passes[0].digest)
	}
	return passes, wall, nil
}

func epochDist(passes []*passResult) *dist {
	lat := &dist{}
	for _, p := range passes {
		for _, e := range p.epochs {
			lat.add(e)
		}
	}
	return lat
}

func runFleetBatch(ctx context.Context, rc runCfg) (*result, error) {
	rep := &result{tput: "building-ticks/s at the median epoch time", latOf: fmt.Sprintf("one %d-tick RunTicks epoch of %d buildings", fleetEpochTicks, fleetBuildings), lanes: 1}
	budget := rc.seconds
	if rc.traced {
		budget /= 2
	}
	hw := startHeapWatch()
	passes, wall, err := fleetPhase(ctx, rc, nil, budget, rep)
	rep.heapPeak = hw.Stop()
	if err != nil {
		return nil, err
	}
	rep.window = wall
	lat := epochDist(passes)
	rep.lat = lat
	rep.throughput = fleetEpochTicks * fleetBuildings * 1000 / lat.percentile(50)
	var bytesPer []float64
	for _, p := range passes {
		rep.setup = append(rep.setup, p.setup)
		bytesPer = append(bytesPer, float64(p.bytesPer))
	}
	rep.named = []metric{
		{Name: "building_ticks_per_s", Value: rep.throughput, Unit: "1/s", N: lat.n(), Note: "at the median epoch time"},
		{Name: "bytes_per_building", Value: median(bytesPer), Unit: "B", N: len(bytesPer), Note: "Fleet.BytesPerBuilding"},
		{Name: "setup_s", Value: median(rep.setup), Unit: "s", N: len(rep.setup)},
		{Name: "heap_peak_mb", Value: float64(rep.heapPeak) / 1e6, Unit: "MB", N: 1},
	}
	if !rc.traced {
		return rep, nil
	}

	tr := newTracer()
	before := readRT()
	tpasses, twall, err := fleetPhase(ctx, rc, tr, rc.seconds-budget, rep)
	if err != nil {
		return nil, err
	}
	all := before.to(readRT())
	rep.spans, rep.budget = tr.snapshot(), twall
	tlat := epochDist(tpasses)
	var newS, bytes []float64
	var epochRT rtDelta
	counts := make([][]float64, 5)
	for _, p := range tpasses {
		newS = append(newS, p.newS)
		bytes = append(bytes, float64(p.bytesPer))
		epochRT.add(p.rt)
		for k := range counts {
			counts[k] = append(counts[k], p.counts[k])
		}
	}
	epochs := tlat.n()
	rep.setLayer("fleet.new_s", median(newS), len(newS), "")
	rep.setLayer("fleet.epoch_ms_p50", tlat.percentile(50), epochs, "")
	rep.setLayer("fleet.epoch_ms_p99", tlat.percentile(99), epochs, "")
	rep.setLayer("fleet.allocs_per_epoch", float64(epochRT.allocObjs)/float64(epochs), epochs, "heap objects allocated per epoch")
	rep.setLayer("alloc_bytes_per_building_tick", float64(epochRT.allocBytes)/float64(epochs*fleetEpochTicks*fleetBuildings), epochs, "")
	rep.setLayer("fleet.bytes_per_building", median(bytes), len(bytes), "Fleet.BytesPerBuilding")
	rep.setLayer("gc.cpu_frac", all.gcCPUFrac, 1, "GC share of CPU over the traced half")
	rep.setLayer("gc.cycles", float64(all.gcCycles), 1, "over the traced half")
	names := []string{"sim.cadenced_skip_frac", "sim.steps_per_building_tick", "wsn.sent", "wsn.collided", "wsn.delivery_frac"}
	for k, name := range names {
		rep.setLayer(name, counts[k][0], len(counts[k]), fmt.Sprintf("buildings 0, %d, ... after %d ticks", fleetCountEvery, fleetWarmTicks+fleetPassEpochs*fleetEpochTicks))
		rep.flagUnlessEqual(name, counts[k])
	}
	var allocs []float64
	for _, p := range tpasses {
		allocs = append(allocs, float64(p.rt.allocObjs))
	}
	rep.flagUnlessEqual("fleet.allocs_per_epoch (per pass)", allocs)
	un, trd := lat.percentile(50), tlat.percentile(50)
	rep.setLayer("tracing.overhead_frac", (trd-un)/un, epochs, "")
	rep.overAbs = fmt.Sprintf("epoch p50 %.3f ms traced vs %.3f ms untraced (%+.3f ms)", trd, un, trd-un)
	return rep, nil
}
