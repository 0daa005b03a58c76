package sim

import (
	"context"
	"fmt"
	"time"
)

// Env is the per-tick view of the simulation handed to components. It is
// valid only for the duration of a single Step call.
type Env struct {
	clock *Clock
	rng   *RNG
	dtS   float64
}

// NewEnv returns an Env over the given clock and RNG. The engine builds
// its own Env for normal runs; this constructor exists so tests and
// benchmarks can drive a single component's Step directly (e.g. the
// AllocsPerRun pins on the tick kernel).
func NewEnv(clock *Clock, rng *RNG) *Env {
	return &Env{clock: clock, rng: rng, dtS: clock.Step().Seconds()}
}

// Now returns the simulated time at the start of the current step.
func (e *Env) Now() time.Time { return e.clock.Now() }

// Dt returns the step duration as seconds. Physical models integrate with
// this value. The Duration-to-seconds conversion is done once at Env
// construction, not per call — the step never changes over a clock's life.
func (e *Env) Dt() float64 { return e.dtS }

// Step returns the step duration.
func (e *Env) Step() time.Duration { return e.clock.Step() }

// Tick returns the current tick index.
func (e *Env) Tick() uint64 { return e.clock.Tick() }

// Elapsed returns the simulated time since the engine started.
func (e *Env) Elapsed() time.Duration { return e.clock.Elapsed() }

// RNG returns the engine's deterministic random source.
func (e *Env) RNG() *RNG { return e.rng }

// Component is a simulation participant. Step is called once per tick in
// registration order. Components that need a coarser cadence keep their
// own accumulators and do nothing on the ticks in between.
type Component interface {
	// Name identifies the component in error messages and traces.
	Name() string
	// Step advances the component by one tick.
	Step(env *Env)
}

// ComponentFunc adapts a function to the Component interface.
type ComponentFunc struct {
	ID string
	Fn func(env *Env)
}

var _ Component = ComponentFunc{}

// Name implements Component.
func (c ComponentFunc) Name() string { return c.ID }

// Step implements Component.
func (c ComponentFunc) Step(env *Env) { c.Fn(env) }

// Engine advances a set of components through simulated time. Components
// are stepped in the order they were added; the order is the data-flow
// order of the physical system (environment → plant → sensors → network →
// controllers → actuators).
//
// Every component is stepped once per tick; a suspended one (see
// Registration.Suspend) is skipped until it is resumed.
type Engine struct {
	clock    *Clock
	rng      *RNG
	timeline *Timeline

	entries []entry // every registered component, registration order

	env *Env // lazily built, reused by every run
}

// NewEngine returns an engine over the given clock and seed.
func NewEngine(clock *Clock, seed uint64) *Engine {
	return &Engine{
		clock:    clock,
		rng:      NewRNG(seed),
		timeline: NewTimeline(),
	}
}

// Clock returns the engine clock.
func (e *Engine) Clock() *Clock { return e.clock }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Timeline returns the engine's event timeline for scheduling one-shot
// events (door openings, setpoint changes, ...).
func (e *Engine) Timeline() *Timeline { return e.timeline }

// ctxCheckSimTime bounds how much simulated time may elapse between
// context checks, so cancellation latency is bounded in simulated time
// regardless of the step size. maxCtxCheckTicks additionally bounds the
// tick count for coarse steps (a one-minute step would otherwise check
// every tick anyway; a sub-millisecond step would go tens of thousands of
// ticks between checks without the cap keeping per-check work bounded).
const (
	ctxCheckSimTime  = time.Minute
	maxCtxCheckTicks = 4096
)

// ctxCheckEvery returns how many ticks may pass between context checks:
// at most one simulated minute and at most maxCtxCheckTicks, whichever is
// fewer ticks, and never less than one.
func (e *Engine) ctxCheckEvery() uint64 {
	every := uint64(ctxCheckSimTime / e.clock.Step())
	if every < 1 {
		every = 1
	}
	if every > maxCtxCheckTicks {
		every = maxCtxCheckTicks
	}
	return every
}

// RunFor advances the simulation by d of simulated time, rounded DOWN to
// whole ticks: a duration that is not a whole multiple of the step
// silently truncates, so 90 s at a 60 s step runs exactly one tick and
// d < step runs none. Callers that need the remainder covered must round
// d up to a multiple of Clock.Step themselves. The context is checked at
// least once per simulated minute (and at least every 4096 ticks, for
// steps coarser than ~15 ms) so that long runs remain cancellable without
// a per-tick overhead.
func (e *Engine) RunFor(ctx context.Context, d time.Duration) error {
	ticks := uint64(d / e.clock.Step())
	return e.RunTicks(ctx, ticks)
}

// RunTicks advances the simulation by n ticks. Each tick fires the
// timeline events due at its instant, then steps every component that is
// not suspended, in registration order.
//
//bzlint:hotpath
func (e *Engine) RunTicks(ctx context.Context, n uint64) error {
	env := e.sharedEnv()
	ctxCheckEvery := e.ctxCheckEvery()
	for i := uint64(0); i < n; i++ {
		if i%ctxCheckEvery == 0 {
			select {
			case <-ctx.Done():
				//bzlint:allow hotpath cold cancellation exit, runs at most once per run
				return fmt.Errorf("sim: run: %w", ctx.Err())
			default:
			}
		}
		e.timeline.fire(env)
		for j := range e.entries {
			ent := &e.entries[j]
			if ent.suspended {
				continue
			}
			ent.c.Step(env)
			ent.steps++
		}
		e.clock.Advance()
	}
	return nil
}

// sharedEnv returns the engine's reusable per-tick Env. An Env is an
// immutable view (clock pointer, RNG pointer, fixed dt), so one instance
// serves every run for the engine's life — a fleet running thousands of
// engines one epoch at a time would otherwise pay one allocation per
// engine per epoch.
func (e *Engine) sharedEnv() *Env {
	if e.env == nil {
		e.env = NewEnv(e.clock, e.rng)
	}
	return e.env
}
