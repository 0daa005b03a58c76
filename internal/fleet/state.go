package fleet

import (
	"fmt"

	"bubblezero/internal/core"
)

// State is a fleet snapshot: the tick count, the applied-event journal,
// and every building's full mutable state. Export only between RunTicks
// calls — every epoch exit leaves each engine between ticks, so that
// point is quiescent — and restore only into a freshly constructed Fleet
// built from the same Config. Construction is deterministic, so the
// rebuilt topology matches position for position; journaled fault events
// scheduled timeline closures, which cannot be serialized, so restore
// replays them at their journaled instants before patching component
// state. Climate and door events mutate component state directly, so
// their effect travels inside the building snapshots and they are never
// replayed.
type State struct {
	Ticks     uint64
	Journal   []AppliedEvent
	Buildings []core.SystemState
}

// ExportState captures the fleet's full mutable state. Events queued but
// not yet drained are applied first, at the current epoch boundary —
// exactly where the next RunTicks would land them — so nothing in flight
// is silently dropped from the snapshot.
func (f *Fleet) ExportState() (State, error) {
	if err := f.drainEvents(); err != nil {
		return State{}, err
	}
	st := State{
		Ticks:     f.ticks,
		Journal:   f.Journal(),
		Buildings: make([]core.SystemState, len(f.buildings)),
	}
	for i, sys := range f.buildings {
		bs, err := sys.ExportState()
		if err != nil {
			return State{}, fmt.Errorf("fleet: export building %d: %w", i, err)
		}
		st.Buildings[i] = bs
	}
	return st, nil
}

// RestoreState patches a freshly constructed Fleet to the captured point.
// The receiver must have been built from the same Config as the exporter
// and not yet run. Journaled fault events replay first: applyNow
// re-schedules the same timeline closures at the same absolute instants,
// and each engine's restore then drops exactly the prefix that had
// already fired before the snapshot. Structural mismatches are reported
// before any building is mutated.
func (f *Fleet) RestoreState(st State) error {
	if f.ticks != 0 || len(f.Journal()) != 0 {
		return fmt.Errorf("fleet: restore target must be freshly constructed (ticks=%d)", f.ticks)
	}
	if len(st.Buildings) != len(f.buildings) {
		return fmt.Errorf("fleet: fleet has %d buildings, snapshot has %d",
			len(f.buildings), len(st.Buildings))
	}
	for i, ae := range st.Journal {
		if ae.Event.Kind != EventFault {
			continue
		}
		if err := ae.Event.Validate(len(f.buildings)); err != nil {
			return fmt.Errorf("fleet: journal entry %d: %w", i, err)
		}
		if err := f.applyNow(ae.Event, ae.Tick); err != nil {
			return fmt.Errorf("fleet: replay journal entry %d: %w", i, err)
		}
	}
	for i, sys := range f.buildings {
		if err := sys.RestoreState(st.Buildings[i]); err != nil {
			return fmt.Errorf("fleet: restore building %d: %w", i, err)
		}
	}
	f.ticks = st.Ticks
	f.record(st.Journal...)
	return nil
}
