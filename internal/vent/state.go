package vent

import (
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
)

// ZoneObsState is one subspace's observation state assembled from
// broadcast sensor messages (NaN before data). The humidity-ratio memo is
// not part of it: restore resets the memo so the next control pass
// recomputes from the same observation pair.
type ZoneObsState struct {
	Temp, RH, CO2 float64
}

// AirboxState is one airbox's mutable state, pump and PID included. In
// the airbox's own copy the Pump and Dew slots stay unused — the pump and
// the controller hold their state — and ExportState fills them.
type AirboxState struct {
	FanFlow    float64 // commanded m³/s
	FlapOpen   bool
	CurDew     float64 // lagged coil outlet dew point (NaN until first air)
	Outlet     psychro.State
	Condensate float64 // kg/s removed from the processed air
	CoilLoadW  float64
	Pump       hydraulic.PumpState
	Dew        pid.State
}

// ExportState captures the airbox's mutable state.
func (b *Airbox) ExportState() AirboxState {
	st := b.st
	st.Pump = b.pump.ExportState()
	st.Dew = b.dew.ExportState()
	return st
}

// RestoreState overwrites the airbox's mutable state.
func (b *Airbox) RestoreState(st AirboxState) {
	b.pump.RestoreState(st.Pump)
	b.dew.RestoreState(st.Dew)
	b.st = st
}

// ModuleState is the ventilation module's full mutable state. TPref/RHPref
// are set at construction and never change, but they stay in the state so
// existing snapshots keep their shape; the psychrometric memos stay outside it and are rebuilt cold (same pure functions, same
// arguments, same bits). In the module's own copy the Boxes slots stay
// unused — the airboxes hold their state — and ExportState fills them.
type ModuleState struct {
	TPref, RHPref float64

	Zones     [NumBoxes]ZoneObsState
	TSupp     float64 // radiant supply temperature from Control-C-1; NaN until broadcast
	AirboxDew [NumBoxes]float64
	// BoxUntrusted marks boxes whose outlet-dew mote has gone stale: the
	// coil PID then tracks the box's own model-predicted outlet dew
	// instead of the last (frozen) measurement.
	BoxUntrusted [NumBoxes]bool
	TaTarget     float64

	Boxes [NumBoxes]AirboxState
}

// ExportState captures the module's mutable state.
func (m *Module) ExportState() ModuleState {
	st := m.st
	for i, b := range m.boxes {
		st.Boxes[i] = b.ExportState()
	}
	return st
}

// RestoreState overwrites the module's mutable state and invalidates
// every exact-key memo.
func (m *Module) RestoreState(st ModuleState) {
	for i, b := range m.boxes {
		b.RestoreState(st.Boxes[i])
	}
	m.st = st
	m.tpDewMemo = memo2{}
	m.roomDewMemo = memo2{}
	m.zoneWMemo = [NumBoxes]memo2{}
	m.sizingMemo.valid = false
}
