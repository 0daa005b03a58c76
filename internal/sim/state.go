package sim

import (
	"fmt"
	"time"
)

// This file is the engine side of the digital-twin snapshot surface: the
// scheduling and randomness state that, together with each component's own
// exported state, lets a run checkpointed at tick T resume bit-identically
// in a fresh process.
//
// The restore model is rebuild-then-patch. Timeline events are closures
// and cannot be serialized, so a snapshot never tries to capture the
// engine structurally: the caller re-assembles the system from the same
// configuration (construction is deterministic — the same components
// register in the same order, the same timeline events are scheduled at
// the same instants, the same construction-time RNG draws happen), and
// RestoreState then overwrites the mutable residue: the clock tick, every
// RNG stream's PCG position, each entry's wheel scheduling counters, and
// the timeline's already-fired prefix (dropped, never re-fired — its
// effects live in the captured component state).

// StreamState is the captured position of one named RNG stream, in
// creation order.
type StreamState struct {
	Name string
	// PCG is the rand.PCG marshaled state (the full generator state; the
	// wrapping rand.Rand is stateless beyond its source).
	PCG []byte
}

// EntrySched is the captured scheduling state of one registered component,
// in registration order.
type EntrySched struct {
	// Name is the component name, used to verify the rebuilt engine
	// registered the same component at this position.
	Name string
	// DoneThrough and NextDue are the wheel bookkeeping for cadenced
	// entries (ticks [0, DoneThrough) delivered; next due tick absolute).
	DoneThrough uint64
	NextDue     uint64
	// UntilDue is the WithCadence wrapper's ticks-until-next-due counter;
	// zero for entries not registered with a fixed cadence.
	UntilDue uint64
	// Steps and RegTick feed StepStats.
	Steps   uint64
	RegTick uint64
	// Woken is the on-demand latch; Suspended the fault-injection flag.
	Woken     bool
	Suspended bool
}

// EngineState is everything the engine itself contributes to a snapshot.
// Component-internal state (accumulators, controller integrals, physics)
// is captured by the components' own export hooks. Unlike the module
// states, it is assembled field by field rather than held inline: an
// EntrySched's Name and UntilDue are not entry fields, and the entries
// sit on the due wheel's hot path.
type EngineState struct {
	Tick    uint64
	Streams []StreamState
	Entries []EntrySched
}

// ExportState captures the engine's scheduling and randomness state.
// Call it between runs (e.g. at an epoch boundary): every run exit has
// already caught the cadenced components up, which is the same quiescent
// point RestoreState resumes from.
func (e *Engine) ExportState() (EngineState, error) {
	streams, err := e.rng.exportStreams()
	if err != nil {
		return EngineState{}, err
	}
	st := EngineState{
		Tick:    e.clock.Tick(),
		Streams: streams,
		Entries: make([]EntrySched, len(e.entries)),
	}
	for i, ent := range e.entries {
		es := EntrySched{
			Name:        ent.c.Name(),
			DoneThrough: ent.doneThrough,
			NextDue:     ent.nextDue,
			Steps:       ent.steps,
			RegTick:     ent.regTick,
			Woken:       ent.woken,
			Suspended:   ent.suspended,
		}
		if fc, ok := ent.c.(*fixedCadence); ok {
			es.UntilDue = fc.untilDue
		}
		st.Entries[i] = es
	}
	return st, nil
}

// RestoreState patches a freshly assembled engine to the captured point:
// it sets the clock, restores every RNG stream, overwrites each entry's
// scheduling counters, rebuilds the due-wheel around the restored due
// ticks, and drops the timeline prefix the original run had already fired.
// The engine must have been assembled from the same configuration as the
// exported one (same registrations in the same order, same timeline); any
// structural mismatch is reported as an error.
func (e *Engine) RestoreState(st EngineState) error {
	if len(st.Entries) != len(e.entries) {
		return fmt.Errorf("sim: restore: engine has %d registrations, snapshot has %d",
			len(e.entries), len(st.Entries))
	}
	for i, es := range st.Entries {
		ent := e.entries[i]
		if ent.c.Name() != es.Name {
			return fmt.Errorf("sim: restore: registration %d is %q, snapshot has %q",
				i, ent.c.Name(), es.Name)
		}
	}
	if err := e.rng.restoreStreams(st.Streams); err != nil {
		return err
	}
	e.clock.tick = st.Tick
	// Rebuild the wheel from scratch around the restored due ticks: the
	// construction-time scheduling (every cadenced entry pushed at its
	// registration-derived first due tick) is stale once the clock moves.
	e.wheel = dueWheel{}
	for i, es := range st.Entries {
		ent := e.entries[i]
		ent.doneThrough = es.DoneThrough
		ent.nextDue = es.NextDue
		ent.steps = es.Steps
		ent.regTick = es.RegTick
		ent.woken = es.Woken
		ent.suspended = es.Suspended
		if fc, ok := ent.c.(*fixedCadence); ok {
			fc.untilDue = es.UntilDue
		}
		if ent.cad != nil {
			e.wheel.push(ent, st.Tick)
		}
	}
	// Drop the timeline events the original run had fired: fire at tick k
	// covers instants <= Now(k), so after T completed ticks everything at
	// or before the tick T-1 instant is spent. Events landing exactly on
	// the tick-T instant have NOT fired yet and stay pending.
	if st.Tick > 0 {
		e.timeline.dropThrough(e.clock.start.Add(time.Duration(st.Tick-1) * e.clock.step))
	}
	return nil
}
