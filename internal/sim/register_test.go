package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Register API tests: every-tick stepping, the fault-suspension semantics
// of Registration.Suspend/Resume, and the step/skip counters.

// accum is a test double for the sensor-device pattern: per-tick
// accumulator bookkeeping (the idle-drain analogue is the ticks counter)
// with observable work whenever the accumulator crosses the period.
type accum struct {
	name    string
	periodS float64
	since   float64
	ticks   uint64   // ticks stepped
	fires   []uint64 // ticks on which observable work happened
	observe func()   // optional, runs at each fire
}

func (a *accum) Name() string { return a.name }
func (a *accum) Step(env *Env) {
	a.ticks++
	a.since += env.Dt()
	for a.since >= a.periodS {
		a.since -= a.periodS
		a.fires = append(a.fires, env.Tick())
		if a.observe != nil {
			a.observe()
		}
	}
}

func TestRegisterDefaults(t *testing.T) {
	// Register steps both a plain component and an accumulator component
	// every tick; the accumulator fires on its own schedule.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var n uint64
	e.Register(ComponentFunc{ID: "plain", Fn: func(*Env) { n++ }})
	dev := &accum{name: "dev", periodS: 3}
	e.Register(dev)
	if err := e.RunTicks(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("plain component stepped %d times, want every tick (20)", n)
	}
	if dev.ticks != 20 {
		t.Errorf("accumulator stepped %d ticks, want 20", dev.ticks)
	}
	want := []uint64{2, 5, 8, 11, 14, 17}
	if fmt.Sprint(dev.fires) != fmt.Sprint(want) {
		t.Errorf("accumulator fires = %v, want %v", dev.fires, want)
	}
	for _, cs := range e.StepStats() {
		if cs.Kind != "every-tick" || cs.Steps != 20 || cs.Skipped != 0 {
			t.Errorf("stats = %+v, want every-tick 20/0", cs)
		}
	}
}

// TestCadencedMatchesEveryTickPolling pins that a component with its own
// cadence, stepped by the engine across uneven RunTicks calls, ends with
// exactly the state and fire schedule of a plain loop calling its Step
// once per tick — including at a step that is not exactly representable
// in binary (100 ms), where the accumulator drifts.
func TestCadencedMatchesEveryTickPolling(t *testing.T) {
	cases := []struct {
		step    time.Duration
		periodS float64
		ticks   uint64
	}{
		{time.Second, 3, 100},
		{time.Second, 2, 101},
		{100 * time.Millisecond, 0.3, 1000},
		{100 * time.Millisecond, 2, 997},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("step=%v_period=%vs", tc.step, tc.periodS), func(t *testing.T) {
			engined := &accum{name: "dev", periodS: tc.periodS}
			e := NewEngine(MustClock(testStart, tc.step), 1)
			e.Register(engined)
			for left, seg := tc.ticks, uint64(7); left > 0; seg += 6 {
				seg = min(seg, left)
				if err := e.RunTicks(context.Background(), seg); err != nil {
					t.Fatal(err)
				}
				left -= seg
			}

			polled := &accum{name: "dev", periodS: tc.periodS}
			clock := MustClock(testStart, tc.step)
			env := NewEnv(clock, NewRNG(1))
			for i := uint64(0); i < tc.ticks; i++ {
				polled.Step(env)
				clock.Advance()
			}

			if engined.ticks != polled.ticks {
				t.Errorf("engine stepped %d ticks, loop %d", engined.ticks, polled.ticks)
			}
			if engined.since != polled.since {
				t.Errorf("accumulator diverged: engine %v, loop %v", engined.since, polled.since)
			}
			if fmt.Sprint(engined.fires) != fmt.Sprint(polled.fires) {
				t.Errorf("engine fired on %v, loop on %v", engined.fires, polled.fires)
			}
		})
	}
}

// TestTimelineEventOnSkippedTick verifies that an event landing between an
// accumulator component's fires still fires on its exact tick, and the
// component observes its effect at its next fire.
func TestTimelineEventOnSkippedTick(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	setting := 0.0
	seen := -1.0
	dev := &accum{name: "dev", periodS: 5}
	dev.observe = func() { seen = setting }
	e.Register(dev)
	var firedTick uint64
	// The device fires on ticks 4 and 9 of a 10-tick run.
	e.Timeline().At(testStart.Add(3*time.Second), "setpoint", func(env *Env) {
		firedTick = env.Tick()
		setting = 42
	})
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if firedTick != 3 {
		t.Errorf("event fired on tick %d, want 3", firedTick)
	}
	if e.Timeline().Len() != 0 {
		t.Errorf("timeline still holds %d events", e.Timeline().Len())
	}
	if len(dev.fires) == 0 || dev.fires[0] != 4 {
		t.Fatalf("device fires = %v, want first fire on tick 4", dev.fires)
	}
	if seen != 42 {
		t.Errorf("device observed setting %v at its fire, want 42", seen)
	}
}

// TestCancellationCatchesUp verifies a cancelled run returns with every
// component stepped through the last executed tick and no further.
func TestCancellationCatchesUp(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accum{name: "dev", periodS: 1 << 20}
	e.Register(dev)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunTicks(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dev.ticks != 0 || e.Clock().Tick() != 0 {
		t.Errorf("device stepped %d ticks, clock at %d after immediate cancellation, want 0/0",
			dev.ticks, e.Clock().Tick())
	}
}

// TestCompletionCatchesUp verifies a run ending strictly between an
// accumulator component's fires leaves it covering every executed tick,
// and a second run resumes from that state.
func TestCompletionCatchesUp(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accum{name: "dev", periodS: 7}
	e.Register(dev)
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 10 {
		t.Errorf("device covers %d ticks, want 10", dev.ticks)
	}
	if len(dev.fires) != 1 || dev.fires[0] != 6 {
		t.Errorf("fires = %v, want exactly [6]", dev.fires)
	}
	if dev.since != 3 {
		t.Errorf("accumulator = %v after 3 ticks past the fire, want 3", dev.since)
	}
	if err := e.RunTicks(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 20 {
		t.Errorf("device covers %d ticks after the second run, want 20", dev.ticks)
	}
	if len(dev.fires) != 2 || dev.fires[1] != 13 {
		t.Errorf("fires = %v, want second fire on tick 13", dev.fires)
	}
}

func TestSuspendResumeAlwaysComponent(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	var stepped []uint64
	reg := e.Register(ComponentFunc{ID: "c", Fn: func(env *Env) {
		stepped = append(stepped, env.Tick())
	}})
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	reg.Suspend()
	if !reg.Suspended() {
		t.Fatal("Suspended() false after Suspend")
	}
	if err := e.RunTicks(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	reg.Resume()
	if reg.Suspended() {
		t.Fatal("Suspended() true after Resume")
	}
	if err := e.RunTicks(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	// Ticks 0-2 stepped, 3-6 suspended (not replayed), 7-9 stepped.
	want := []uint64{0, 1, 2, 7, 8, 9}
	if fmt.Sprint(stepped) != fmt.Sprint(want) {
		t.Errorf("stepped on %v, want %v", stepped, want)
	}
}

func TestSuspendResumeCadencedComponent(t *testing.T) {
	// A mote suspended mid-run: the outage ticks are never replayed, the
	// accumulator freezes across the outage, and after Resume the device
	// picks its schedule up from the frozen accumulator.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accum{name: "dev", periodS: 3}
	reg := e.Register(dev)
	if err := e.RunTicks(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	// Fires at ticks 2 and 5; tick 6 leaves the accumulator at 1.
	reg.Suspend()
	if err := e.RunTicks(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 7 {
		t.Errorf("suspended device stepped %d ticks during the outage", dev.ticks-7)
	}
	reg.Resume()
	if err := e.RunTicks(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	if dev.ticks != 16 {
		t.Errorf("device stepped %d ticks, want 16 (outage [7,16) skipped)", dev.ticks)
	}
	// The frozen accumulator (1 s) needs two more ticks: 16 → 2, 17 → 3.
	want := []uint64{2, 5, 17, 20, 23}
	if fmt.Sprint(dev.fires) != fmt.Sprint(want) {
		t.Errorf("fires = %v, want %v", dev.fires, want)
	}
}

func TestSuspendFlushesPendingTicks(t *testing.T) {
	// Suspending between fires leaves the accumulator exactly where the
	// elapsed ticks put it, so the outage starts from exact state.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accum{name: "dev", periodS: 5}
	reg := e.Register(dev)
	if err := e.RunTicks(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	reg.Suspend()
	if dev.ticks != 7 || dev.since != 2 {
		t.Errorf("device at %d ticks, accumulator %v at suspend, want 7 and 2", dev.ticks, dev.since)
	}
}

func TestSuspendedStepStatsCountSkips(t *testing.T) {
	e := NewEngine(MustClock(testStart, time.Second), 1)
	reg := e.Register(ComponentFunc{ID: "c", Fn: func(*Env) {}})
	reg.Suspend()
	if err := e.RunTicks(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	stats := e.StepStats()
	if stats[0].Steps != 0 || stats[0].Skipped != 5 {
		t.Errorf("suspended stats = %+v, want 0 steps / 5 skipped", stats[0])
	}
}

func TestSuspendResumeWarmAllocs(t *testing.T) {
	// A mote-offline fault suspends and resumes a device from a timeline
	// event: a warm Suspend/Resume cycle, and a tick stepped across it,
	// must not allocate.
	e := NewEngine(MustClock(testStart, time.Second), 1)
	dev := &accum{name: "dev", periodS: 1 << 20}
	reg := e.Register(dev)
	ctx := context.Background()
	if err := e.RunTicks(ctx, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		reg.Suspend()
		_ = e.RunTicks(ctx, 1)
		reg.Resume()
		_ = e.RunTicks(ctx, 1)
	})
	if allocs != 0 {
		t.Errorf("warm Suspend/Resume allocates %v times per cycle, want 0", allocs)
	}
	if want := (e.Clock().Tick() + 1) / 2; dev.ticks != want {
		t.Errorf("device stepped %d ticks, want %d (suspended ticks skipped)", dev.ticks, want)
	}
}
