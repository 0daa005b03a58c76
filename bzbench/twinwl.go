package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fleet"
	"bubblezero/internal/runner"
	"bubblezero/internal/trace"
	"bubblezero/internal/twin"
)

// twin-read: a traced twin at rest behind the HTTP API, read by closed-loop
// clients, plus checkpoint cycles (GET /snapshot, POST /twins/restore,
// verify). One operation is one read request.
//
// twin-live: the same service with the twin's runner kept busy and the
// clients also posting events, so reads wait on the fleet lock. The
// throughput is the runner's building-ticks/s; a latency sample is one
// read request.
const (
	readBuildings    = 48
	readWarmTicks    = 6144
	checkpointCycles = 3
	probeQueries     = 2000

	liveBuildings = 6
	liveWarmTicks = 1024
	twinRetention = 512     // samples kept per series: holds all of twin-read's history and bounds twin-live's
	liveBacklog   = 1 << 40 // ticks queued so the runner never idles
	liveChunk     = 512     // ticks the twin's runner steps per lock hold
)

var (
	readMix = opMix{query: 70, csv: 10, series: 10, status: 10}
	liveMix = opMix{query: 55, csv: 5, series: 10, status: 20, event: 10}
)

// tickSeconds is the simulated length of one tick.
var tickSeconds = int64(core.DefaultConfig().Step / time.Second)

func runTwinRead(ctx context.Context, rc runCfg) (*result, error) {
	cfg := twin.Config{Buildings: readBuildings, Shards: rc.lanes, Seed: twinSeed(rc), SampleRetention: twinRetention}
	env, setup, err := twinSetups(ctx, rc, cfg, readWarmTicks)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &result{setup: setup, lanes: rc.lanes, tput: "read requests/s (query, CSV, series, status)", latOf: "one read request"}
	gen := &opGen{id: env.id, buildings: readBuildings, series: env.series, mix: readMix, historyS: readWarmTicks * tickSeconds}

	budget := rc.seconds
	if rc.traced {
		budget /= 2
	}
	hw := startHeapWatch()
	cs, wall := clientPhase(ctx, env, gen, rc.lanes, rc.seed, budget, nil, &rep.tally)
	cps := checkpoints(ctx, env, nil, rep)
	rep.heapPeak = hw.Stop()
	rep.window, rep.lat = wall, cs.reads
	rep.throughput = cs.readRate(wall)
	rep.named = append([]metric{
		{Name: "queries_per_s", Value: rep.throughput, Unit: "1/s", N: cs.reads.n(), Note: "all read requests, median 1 s window"},
	}, queryMetrics(cs.reads)...)
	rep.named = append(rep.named, []metric{
		{Name: "snapshot_s", Value: median(cps.snapS), Unit: "s", N: len(cps.snapS), Note: "GET /snapshot"},
		{Name: "restore_s", Value: median(cps.restoreS), Unit: "s", N: len(cps.restoreS), Note: "POST /twins/restore"},
		{Name: "setup_s", Value: median(rep.setup), Unit: "s", N: len(rep.setup)},
		{Name: "heap_peak_mb", Value: float64(rep.heapPeak) / 1e6, Unit: "MB", N: 1},
	}...)
	if !rc.traced {
		return rep, nil
	}

	tr := newTracer()
	before := readRT()
	tcs, twall := clientPhase(ctx, env, gen, rc.lanes, rc.seed, rc.seconds-budget, tr, &rep.tally)
	t0 := time.Now()
	tcps := checkpoints(ctx, env, tr, rep)
	probes := []probeResult{}
	for i, snap := range tcps.snaps {
		p, err := layerProbes(ctx, env, gen, snap, tr, int64(1000+i), rc.seed, rep)
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
	}
	all := before.to(readRT())
	rep.spans = tr.snapshot()
	rep.budget = time.Duration(rc.lanes)*twall + time.Since(t0)

	spanStats(rep, "trace.query", "trace.query_us", 1000, "direct Recorder.Query inside Twin.View on a twin restored from the served snapshot")
	viewStats(rep, "idle twin")
	col := func(f func(probeResult) float64) []float64 {
		var out []float64
		for _, p := range probes {
			out = append(out, f(p))
		}
		return out
	}
	rep.setLayer("fleet.new_s", median(col(func(p probeResult) float64 { return p.newS })), len(probes), "first half of RestoreTwin")
	rep.setLayer("fleet.restore_state_s", median(col(func(p probeResult) float64 { return p.restoreStateS })), len(probes), "")
	rep.setLayer("twin.restore_twin_s", median(col(func(p probeResult) float64 { return p.restoreTwinS })), len(probes), "")
	rep.setLayer("twin.read_snapshot_s", median(col(func(p probeResult) float64 { return p.readS })), len(probes), "")
	rep.setLayer("fleet.export_state_s", median(col(func(p probeResult) float64 { return p.exportS })), len(probes), "inside Twin.View")
	rep.setLayer("twin.write_snapshot_s", median(col(func(p probeResult) float64 { return p.writeS })), len(probes), "")
	if sizes := col(func(p probeResult) float64 { return p.bytes }); len(sizes) > 0 {
		rep.setLayer("twin.snapshot_bytes", sizes[0], len(sizes), "")
		rep.flagUnlessEqual("twin.snapshot_bytes", sizes)
	}
	rep.setLayer("gc.cpu_frac", all.gcCPUFrac, 1, "process-wide over the traced half")
	rep.setLayer("gc.cycles", float64(all.gcCycles), 1, "process-wide over the traced half")
	overhead(rep, cs.reads, tcs.reads)
	return rep, nil
}

func runTwinLive(ctx context.Context, rc runCfg) (*result, error) {
	cfg := twin.Config{Buildings: liveBuildings, Shards: rc.lanes, Seed: twinSeed(rc), SampleRetention: twinRetention}
	env, setup, err := twinSetups(ctx, rc, cfg, liveWarmTicks)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &result{setup: setup, lanes: rc.lanes, tput: "runner building-ticks/s beside the clients", latOf: "one read request"}
	latest := &atomic.Uint64{}
	latest.Store(liveWarmTicks)
	gen := &opGen{id: env.id, buildings: liveBuildings, series: env.series, mix: liveMix, live: true, latest: latest}
	if err := env.runTicks(ctx, liveBacklog); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	budget := rc.seconds
	if rc.traced {
		budget /= 2
	}
	hw := startHeapWatch()
	cs, ticks, wall, err := livePhase(ctx, env, gen, rc, budget, nil, rep)
	rep.heapPeak = hw.Stop()
	if err != nil {
		return nil, err
	}
	rep.window, rep.lat = wall, cs.reads
	rep.throughput = cs.tickRate(wall) * liveBuildings
	rep.named = append([]metric{
		{Name: "building_ticks_per_s", Value: rep.throughput, Unit: "1/s", N: int(ticks / liveChunk), Note: "median 2 s window of status answers"},
		{Name: "queries_per_s", Value: cs.readRate(wall), Unit: "1/s", N: cs.reads.n(), Note: "all read requests, median 1 s window"},
	}, queryMetrics(cs.reads)...)
	rep.named = append(rep.named, []metric{
		{Name: "event_ms_p50", Value: cs.events.percentile(50), Unit: "ms", N: cs.events.n(), Note: "POST /events"},
		{Name: "setup_s", Value: median(rep.setup), Unit: "s", N: len(rep.setup)},
		{Name: "heap_peak_mb", Value: float64(rep.heapPeak) / 1e6, Unit: "MB", N: 1},
	}...)
	if !rc.traced {
		return rep, nil
	}

	tr := newTracer()
	before := readRT()
	tcs, tticks, twall, err := livePhase(ctx, env, gen, rc, rc.seconds-budget, tr, rep)
	if err != nil {
		return nil, err
	}
	all := before.to(readRT())
	t0 := time.Now()
	fc, err := cfg.FleetConfig()
	if err != nil {
		return nil, err
	}
	newD, err := tr.call(0, 1<<62, 0, "fleet.new", func(int) error { _, err := fleet.New(ctx, fc); return err })
	if err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	rep.budget = time.Duration(rc.lanes)*twall + time.Since(t0)

	viewStats(rep, "runner busy")
	spanStats(rep, "http.event", "fleet.apply_us", 1000, "POST /events round trip; the handler's only fleet call is fleet.Apply")
	rep.setLayer("fleet.new_s", newD.Seconds(), 1, "the twin's fleet config, built beside the busy twin")
	bt := float64(tticks * liveBuildings)
	rep.setLayer("alloc_bytes_per_building_tick", float64(all.allocBytes)/bt, 1, "process-wide: runner, server and clients")
	rep.setLayer("gc.cpu_frac", all.gcCPUFrac, 1, "process-wide over the traced half")
	rep.setLayer("gc.cycles", float64(all.gcCycles), 1, "process-wide over the traced half")
	overhead(rep, cs.reads, tcs.reads)
	return rep, nil
}

// livePhase runs the clients against the busy twin and returns the ticks
// the runner advanced meanwhile.
func livePhase(ctx context.Context, env *twinEnv, gen *opGen, rc runCfg, dur time.Duration, tr *tracer, rep *result) (*clientStats, uint64, time.Duration, error) {
	st0, err := env.status(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	cs, _ := clientPhase(ctx, env, gen, rc.lanes, rc.seed, dur, tr, &rep.tally)
	st1, err := env.status(ctx)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	if !rep.tally.check(st1.Ticks > st0.Ticks, "twin-live: runner did not advance (%d -> %d ticks)", st0.Ticks, st1.Ticks) {
		return cs, 0, wall, nil
	}
	return cs, st1.Ticks - st0.Ticks, wall, nil
}

// checkpointResult is what the checkpoint cycles measured.
type checkpointResult struct {
	snapS, restoreS []float64
	snaps           [][]byte
}

// checkpoints runs checkpointCycles cycles of GET /snapshot, POST
// /twins/restore, a fixed query on both twins that must answer
// byte-identically, and DELETE of the restored twin.
func checkpoints(ctx context.Context, env *twinEnv, tr *tracer, rep *result) checkpointResult {
	var res checkpointResult
	last := readBuildings - 1
	fixed := func(id string) string {
		return fmt.Sprintf("/twins/%s/query?building=%d&series=%s&agg=mean&from_s=0&to_s=%d&step_s=60",
			id, last, env.series[0], readWarmTicks*tickSeconds)
	}
	for c := 0; c < checkpointCycles; c++ {
		req := int64(1<<50 + c)
		root := tr.begin(0, req, 0, "bzbench.checkpoint")
		var snap, created []byte
		sd, err := tr.call(0, req, root, "http.snapshot", func(int) error {
			code, body, err := env.do(ctx, http.MethodGet, "/twins/"+env.id+"/snapshot", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET snapshot: status %d: %.200s", code, body)
			}
			snap = body
			return err
		})
		if !rep.tally.record(err) {
			tr.end(root)
			continue
		}
		rd, err := tr.call(0, req, root, "http.restore", func(int) error {
			code, body, err := env.do(ctx, http.MethodPost, "/twins/restore", snap)
			if err == nil && code != http.StatusCreated {
				err = fmt.Errorf("POST restore: status %d: %.200s", code, body)
			}
			created = body
			return err
		})
		if !rep.tally.record(err) {
			tr.end(root)
			continue
		}
		res.snapS = append(res.snapS, sd.Seconds())
		res.restoreS = append(res.restoreS, rd.Seconds())
		res.snaps = append(res.snaps, snap)
		var st twinStatus
		err = json.Unmarshal(created, &st)
		if rep.tally.record(err) {
			_, err = tr.call(0, req, root, "http.verify", func(int) error {
				_, a, err := env.do(ctx, http.MethodGet, fixed(env.id), nil)
				if err != nil {
					return err
				}
				_, b, err := env.do(ctx, http.MethodGet, fixed(st.ID), nil)
				if err != nil {
					return err
				}
				if !bytes.Equal(a, b) {
					return fmt.Errorf("restored twin %s answers the fixed query differently from its source", st.ID)
				}
				return nil
			})
			rep.tally.record(err)
			_, err = tr.call(0, req, root, "http.delete", func(int) error {
				code, _, err := env.do(ctx, http.MethodDelete, "/twins/"+st.ID, nil)
				if err == nil && code != http.StatusNoContent {
					err = fmt.Errorf("DELETE restored twin: status %d", code)
				}
				return err
			})
			rep.tally.record(err)
		}
		tr.end(root)
	}
	return res
}

// probeResult is one pass of direct layer calls on a snapshot.
type probeResult struct {
	readS, restoreTwinS, newS, restoreStateS, exportS, writeS, bytes float64
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// layerProbes calls the layers under the HTTP routes directly, on a twin
// restored from a snapshot the server produced: the decode and rebuild
// halves of a restore, the export and encode halves of a snapshot, and
// probeQueries trace queries each inside Twin.View.
func layerProbes(ctx context.Context, env *twinEnv, gen *opGen, snapBytes []byte, tr *tracer, req int64, seed uint64, rep *result) (probeResult, error) {
	var res probeResult
	root := tr.begin(0, req, 0, "bzbench.probe")
	defer tr.end(root)
	var snap *twin.Snapshot
	d, err := tr.call(0, req, root, "twin.read_snapshot", func(int) (err error) {
		snap, err = twin.ReadSnapshot(bytes.NewReader(snapBytes))
		return err
	})
	if !rep.tally.record(err) {
		return res, nil
	}
	res.readS = d.Seconds()
	var tw *twin.Twin
	d, err = tr.call(0, req, root, "twin.restore_twin", func(int) (err error) {
		tw, err = twin.RestoreTwin(ctx, snap)
		return err
	})
	if !rep.tally.record(err) {
		return res, nil
	}
	defer tw.Close()
	res.restoreTwinS = d.Seconds()

	fc, err := snap.Config.FleetConfig()
	if err != nil {
		return res, err
	}
	var fl *fleet.Fleet
	d, err = tr.call(0, req, root, "fleet.new", func(int) (err error) {
		fl, err = fleet.New(ctx, fc)
		return err
	})
	if !rep.tally.record(err) {
		return res, nil
	}
	res.newS = d.Seconds()
	d, err = tr.call(0, req, root, "fleet.restore_state", func(int) error { return fl.RestoreState(snap.State) })
	if !rep.tally.record(err) {
		return res, nil
	}
	res.restoreStateS = d.Seconds()

	var st fleet.State
	d, err = tr.call(0, req, root, "fleet.export_state", func(int) error {
		return tw.View(func(f *fleet.Fleet) (err error) {
			st, err = f.ExportState()
			return err
		})
	})
	if !rep.tally.record(err) {
		return res, nil
	}
	res.exportS = d.Seconds()
	cw := &countingWriter{}
	d, err = tr.call(0, req, root, "twin.write_snapshot", func(int) error {
		return twin.WriteSnapshot(cw, &twin.Snapshot{Config: tw.Config(), State: st})
	})
	if !rep.tally.record(err) {
		return res, nil
	}
	res.writeS, res.bytes = d.Seconds(), float64(cw.n)
	rep.tally.check(cw.n == int64(len(snapBytes)), "twin-read: re-encoded snapshot is %d bytes, served one %d", cw.n, len(snapBytes))

	qgen := *gen
	qgen.mix = opMix{query: 100}
	rng := rand.New(rand.NewPCG(runner.DeriveSeed(seed, tagQueries), uint64(req)))
	var buf []trace.QueryPoint
	for k := 0; k < probeQueries; k++ {
		o := qgen.next(rng)
		agg, err := trace.ParseAgg(o.agg)
		if err != nil {
			return res, err
		}
		start := tw.Start()
		q := trace.Query{
			From: start.Add(time.Duration(o.fromS) * time.Second),
			To:   start.Add(time.Duration(o.toS) * time.Second),
			Step: time.Duration(o.step) * time.Second,
			Agg:  agg,
		}
		_, err = tr.call(0, req, root, "twin.view", func(id int) error {
			return tw.View(func(f *fleet.Fleet) error {
				_, err := tr.call(0, req, id, "trace.query", func(int) (err error) {
					buf, err = f.Building(o.building).Recorder().Query(o.series, q, buf)
					return err
				})
				return err
			})
		})
		if err == nil && len(buf) != o.want {
			err = fmt.Errorf("trace.Query %s: %d buckets, want %d", o.path, len(buf), o.want)
		}
		rep.tally.record(err)
	}
	return res, nil
}

// spanStats reports the p50 and p99 of the named spans' durations, scaled
// from ms by scale, as <metric>_p50 and <metric>_p99 (or as the bare
// metric's median when it has no percentile suffix in perLayer).
func spanStats(rep *result, span, metric string, scale float64, note string) {
	d := durations(rep.spans, span)
	if d.n() == 0 {
		return
	}
	if metric == "fleet.apply_us" {
		rep.setLayer(metric, scale*d.percentile(50), d.n(), "p50 of "+note)
		return
	}
	rep.setLayer(metric+"_p50", scale*d.percentile(50), d.n(), note)
	rep.setLayer(metric+"_p99", scale*d.percentile(99), d.n(), note)
}

// viewStats reports GET /twins/{id} as the lock-wait probe: its handler
// does nothing but read the tick count under the twin's fleet lock.
func viewStats(rep *result, state string) {
	spanStats(rep, "http.status", "twin.view_ms", 1, "GET /twins/{id} round trip ("+state+"): a no-op read under the fleet lock")
}

// queryMetrics names the read-latency median and p99. A read is any GET
// the clients send: /query (JSON or CSV), /series or status; every one of
// them takes the twin's fleet lock.
func queryMetrics(reads *dist) []metric {
	n := reads.n()
	p := 99.0
	return []metric{
		{Name: "query_ms_p50", Value: reads.percentile(50), Unit: "ms", N: n, Note: "all read requests"},
		{Name: "query_ms_p99", Value: reads.percentile(p), Unit: "ms", N: n, Note: fmt.Sprintf("%d samples beyond", n-rankOf(p, n))},
	}
}

// overhead reports traced minus untraced read latency.
func overhead(rep *result, untraced, traced *dist) {
	un, tr := untraced.percentile(50), traced.percentile(50)
	rep.setLayer("tracing.overhead_frac", (tr-un)/un, traced.n(), "")
	rep.overAbs = fmt.Sprintf("read p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms)", tr, un, tr-un)
}
