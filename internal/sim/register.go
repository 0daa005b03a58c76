package sim

// entry is the engine-side record for one registered component.
type entry struct {
	c Component
	// suspended entries are skipped until their Registration resumes them.
	suspended bool

	steps   uint64 // ticks on which the component was stepped
	regTick uint64 // clock tick at registration, for skip accounting
}

// Registration is the handle returned by Engine.Register. The zero value
// is not meaningful; handles are only created by Register.
type Registration struct {
	e   *Engine
	idx int // position in e.entries
}

// Suspend takes the component offline, so fault injectors can power a
// device down mid-run: the engine stops calling Step until Resume.
func (r *Registration) Suspend() { r.e.entries[r.idx].suspended = true }

// Resume puts a suspended component back on every tick. The ticks spent
// suspended are not replayed: the component's accumulators are frozen
// across the outage, as if the hardware had been powered off.
func (r *Registration) Resume() { r.e.entries[r.idx].suspended = false }

// Suspended reports whether the component is currently suspended.
func (r *Registration) Suspended() bool { return r.e.entries[r.idx].suspended }

// Register adds c to the engine at the next position in step order and
// returns its handle. Register components between runs, not from inside a
// Step call.
func (e *Engine) Register(c Component) *Registration {
	e.entries = append(e.entries, entry{c: c, regTick: e.clock.Tick()})
	return &Registration{e: e, idx: len(e.entries) - 1}
}

// ComponentStats describes one component's stepping over the engine's
// lifetime.
type ComponentStats struct {
	// Name is the component name.
	Name string
	// Kind is "every-tick", the engine's one scheduling class.
	Kind string
	// Steps counts the ticks on which the component was stepped.
	Steps uint64
	// Skipped counts the processed ticks on which it was suspended.
	Skipped uint64
}

// StepStats reports per-component step/skip counters in registration
// order.
func (e *Engine) StepStats() []ComponentStats {
	out := make([]ComponentStats, len(e.entries))
	now := e.clock.Tick()
	for i, ent := range e.entries {
		out[i] = ComponentStats{
			Name:    ent.c.Name(),
			Kind:    "every-tick",
			Steps:   ent.steps,
			Skipped: now - ent.regTick - ent.steps,
		}
	}
	return out
}
