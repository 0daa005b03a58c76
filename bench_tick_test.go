package bubblezero_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/wsn"
)

// Tick-kernel benchmarks: the per-tick hot path the zero-alloc work
// targets. BenchmarkSystemTick is the headline ticks/sec number for the
// fully assembled system; the Room.Step and Network.Step benchmarks
// isolate the two kernels whose allocation behaviour is pinned to zero by
// the package tests (internal/thermal, internal/wsn). Recorded in
// BENCH_tick_kernel.json via `make bench-tick-json`.

// benchStart matches the 13:00 trial start used across the experiments.
var benchStart = time.Date(2013, time.August, 20, 13, 0, 0, 0, time.UTC)

// BenchmarkSystemTick steps the fully assembled system — room, devices,
// network, both hydraulic loops, controllers, glue, and trace recording —
// one tick per iteration and reports the aggregate tick rate.
func BenchmarkSystemTick(b *testing.B) {
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm up past the transient so iterations measure steady-state ticks
	// (buffers grown, controllers engaged), then time b.N ticks in one run.
	if err := sys.Engine().RunTicks(ctx, 600); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.Engine().RunTicks(ctx, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkRoomStep isolates the thermal integration kernel: four coupled
// zones with occupancy, ventilation input, and an open door, including the
// per-tick derived-state (dew point, RH, averages) recomputation.
func BenchmarkRoomStep(b *testing.B) {
	r, err := thermal.NewRoom(thermal.DefaultConfig(),
		psychro.NewStateDewPoint(28.9, 27.4, 0), 700)
	if err != nil {
		b.Fatal(err)
	}
	r.SetOccupants(thermal.ZoneID(0), 2)
	r.SetVent(thermal.ZoneID(1), thermal.VentInput{
		VolFlow: 0.02, Supply: psychro.NewStateDewPoint(18, 9, 0), SupplyCO2PPM: 400,
	})
	r.OpenDoor(time.Duration(1<<62) - 1)
	e := sim.NewEngine(sim.MustClock(benchStart, time.Second), 7)
	env := sim.NewEnv(e.Clock(), e.RNG())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(env)
	}
}

// BenchmarkNetworkStep isolates the CSMA channel kernel under load: thirty
// senders contending per tick, with two subscribers on the delivery path.
func BenchmarkNetworkStep(b *testing.B) {
	e := sim.NewEngine(sim.MustClock(benchStart, time.Second), 11)
	net, err := wsn.NewNetwork(wsn.DefaultConfig(), e.RNG().Stream("wsn"))
	if err != nil {
		b.Fatal(err)
	}
	env := sim.NewEnv(e.Clock(), e.RNG())
	var nodes []*wsn.Node
	for i := 0; i < 20; i++ {
		n, err := net.AddNode(wsn.NodeID(fmt.Sprintf("bt-%d", i)), wsn.PowerBattery)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < 10; i++ {
		n, err := net.AddNode(wsn.NodeID(fmt.Sprintf("ac-%d", i)), wsn.PowerAC)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	net.Subscribe(func(wsn.Message) {}, wsn.MsgTemperature)
	net.Subscribe(func(wsn.Message) {}, wsn.MsgHumidity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			_ = net.Broadcast(n, wsn.Message{Type: wsn.MsgTemperature})
		}
		net.Step(env)
	}
}

// TestSystemTickZeroAllocWithFaultPlan pins the steady-state tick to
// zero per-tick allocations while a fault plan is armed and one of its
// outages is live: the suspended-entry skip, the watchdog the
// plan arms, and the degradation bookkeeping must not add per-tick
// garbage. Each measured call covers a 100-tick chunk; the allowance of
// 10 per chunk absorbs the per-call Env header and the rare amortized
// events profiling attributes the residue to (histogram rescale, trace
// chunk linking — ~2 per chunk in practice), while a single new allocation on the per-tick path shows
// up as 100+ and fails hard.
func TestSystemTickZeroAllocWithFaultPlan(t *testing.T) {
	plan := fault.MustPlan(
		// Injected and cleared during warmup: exercises the suspend and
		// resume transitions before measurement starts.
		fault.Jam(2*time.Minute, time.Minute),
		// Live for the whole measured window: the mote's registration stays
		// suspended and zone-2 control runs on neighbour substitution.
		fault.MoteOffline(5*time.Minute, 30*time.Minute, "bt-temp-2"),
	)
	cfg := core.DefaultConfig()
	sys, err := core.NewSystem(cfg, core.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// 12 minutes: past the thermal transient, past the jam window, and 7
	// minutes into the outage — beyond the 5-minute staleness budget, so
	// neighbour substitution is active when measurement starts.
	if err := sys.Run(ctx, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !sys.Degradation().TempSubstituted[1] {
		t.Fatal("warmup did not reach the live outage window")
	}

	const chunks, ticksPer = 6, 100
	// Pre-grow every traced series past the samples the measured ticks
	// record (one per TracePeriod at the 1 s step), so amortized chunk
	// growth does not count as tick work.
	samples := (chunks+1)*ticksPer/int(cfg.TracePeriod/time.Second) + 4
	for _, name := range sys.Recorder().Names() {
		sys.Recorder().Series(name).Grow(samples)
	}
	allocs := testing.AllocsPerRun(chunks, func() {
		if err := sys.Engine().RunTicks(ctx, ticksPer); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("ticking with an armed fault plan allocates %.2f per %d-tick chunk, want <= 10 (amortized events only, nothing per tick)", allocs, ticksPer)
	}
	if !sys.Degradation().TempSubstituted[1] {
		t.Error("outage ended mid-measurement; the pin no longer covers the degraded path")
	}
}
