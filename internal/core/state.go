package core

import (
	"fmt"
	"math"

	"bubblezero/internal/energy"
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/radiant"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
	"bubblezero/internal/vent"
	"bubblezero/internal/wsn"
)

// This file is the system side of the digital-twin snapshot surface (the
// engine side lives in internal/sim/state.go). Export only at a quiescent
// point between ticks — the same point restore resumes from — and restore
// only into a System assembled from the same configuration, seed, options,
// and fault plan: construction is deterministic, so the rebuilt topology
// matches position for position, and RestoreState patches the mutable
// residue on top.

// WatchdogState is the degradation watchdog's mutable state, held inline
// by the watchdog; present in a snapshot exactly when the exporting
// system was armed with a fault plan.
type WatchdogState struct {
	// Last-fresh timestamps (simulated seconds since start) and last
	// values per consumed input. Construction counts as time 0 freshness:
	// every sensor broadcasts within its first adaptive period, far
	// inside any sane staleness budget.
	TempAtS   [thermal.NumZones]float64
	TempVal   [thermal.NumZones]float64
	RHAtS     [thermal.NumZones]float64
	PanelAtS  [radiant.NumPanels]float64
	BoxAtS    [vent.NumBoxes]float64
	SupplyAtS float64

	// Current degraded flags, kept to act only on transitions.
	TempSub   [thermal.NumZones]bool
	Frozen    bool
	SafeMode  [radiant.NumPanels]bool
	BoxStale  [vent.NumBoxes]bool
	SupplyOld bool

	Transitions int
}

// DeviceState pairs a sensor device's node ID with its exported state so
// restore can verify the rebuilt topology put the same device at the same
// position.
type DeviceState struct {
	ID    wsn.NodeID
	State wsn.SensorDeviceState
}

// SystemState is a System's full mutable state: engine scheduling and RNG,
// plant physics, hydraulics, control modules, radio layer, accounting, and
// traces. The wSurfMemo condensation cache is deliberately absent — restore
// keys it to NaN and the next glue tick recomputes the same bits. It is an
// assembly of the modules' own states, not a copy held by the System.
type SystemState struct {
	Engine sim.EngineState

	Room        thermal.RoomState
	Net         wsn.NetworkState
	RadiantTank hydraulic.TankState
	VentTank    hydraulic.TankState
	Radiant     radiant.ModuleState
	Vent        vent.ModuleState

	Devices      []DeviceState                  // in registration order
	Broadcasters []wsn.PeriodicBroadcasterState // in registration order

	Recorder trace.RecorderState

	Watch *WatchdogState // nil when no fault plan armed the watchdog

	COPRadiant energy.COP
	COPVent    energy.COP

	CondensationS float64
	SinceTrace    float64
}

// ExportState captures the system's full mutable state. Call it between
// runs, where the engine has caught every cadenced component up.
func (s *System) ExportState() (SystemState, error) {
	eng, err := s.engine.ExportState()
	if err != nil {
		return SystemState{}, err
	}
	st := SystemState{
		Engine:        eng,
		Room:          s.room.ExportState(),
		Net:           s.net.ExportState(),
		RadiantTank:   s.radiantTank.ExportState(),
		VentTank:      s.ventTank.ExportState(),
		Radiant:       s.radiantMod.ExportState(),
		Vent:          s.ventMod.ExportState(),
		Devices:       make([]DeviceState, len(s.devices)),
		Broadcasters:  make([]wsn.PeriodicBroadcasterState, len(s.broadcasters)),
		Recorder:      s.rec.ExportState(),
		COPRadiant:    s.copRadiant,
		COPVent:       s.copVent,
		CondensationS: s.condensationS,
		SinceTrace:    s.sinceTrace,
	}
	for i, d := range s.devices {
		ds, err := d.ExportState()
		if err != nil {
			return SystemState{}, err
		}
		st.Devices[i] = DeviceState{ID: d.Node().ID(), State: ds}
	}
	for i, b := range s.broadcasters {
		st.Broadcasters[i] = b.ExportState()
	}
	if s.watch != nil {
		w := s.watch.st
		st.Watch = &w
	}
	return st, nil
}

// RestoreState patches a freshly assembled System to the captured point.
// The receiver must have been built from the same configuration, seed,
// options, and fault plan as the exporter. Structural mismatches (device,
// broadcaster and watchdog shape, trace points out of time order) are
// reported before any state is overwritten. A child restore can still fail
// midway (engine RNG streams, node set, device schedulers), leaving the
// receiver partly restored, so a caller must discard the System on any
// error.
func (s *System) RestoreState(st SystemState) error {
	if len(st.Devices) != len(s.devices) {
		return fmt.Errorf("core: restore: system has %d devices, snapshot has %d",
			len(s.devices), len(st.Devices))
	}
	for i, d := range s.devices {
		if d.Node().ID() != st.Devices[i].ID {
			return fmt.Errorf("core: restore: device %d is %q, snapshot has %q",
				i, d.Node().ID(), st.Devices[i].ID)
		}
	}
	if len(st.Broadcasters) != len(s.broadcasters) {
		return fmt.Errorf("core: restore: system has %d broadcasters, snapshot has %d",
			len(s.broadcasters), len(st.Broadcasters))
	}
	if (s.watch != nil) != (st.Watch != nil) {
		return fmt.Errorf("core: restore: watchdog armed = %v, snapshot has %v",
			s.watch != nil, st.Watch != nil)
	}
	if err := st.Recorder.Validate(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := s.engine.RestoreState(st.Engine); err != nil {
		return err
	}
	s.room.RestoreState(st.Room)
	if err := s.net.RestoreState(st.Net); err != nil {
		return err
	}
	s.radiantTank.RestoreState(st.RadiantTank)
	s.ventTank.RestoreState(st.VentTank)
	s.radiantMod.RestoreState(st.Radiant)
	s.ventMod.RestoreState(st.Vent)
	for i, d := range s.devices {
		if err := d.RestoreState(st.Devices[i].State); err != nil {
			return err
		}
	}
	for i, b := range s.broadcasters {
		b.RestoreState(st.Broadcasters[i])
	}
	if err := s.rec.RestoreState(st.Recorder); err != nil {
		return err
	}
	if st.Watch != nil {
		s.watch.st = *st.Watch
	}
	s.copRadiant = st.COPRadiant
	s.copVent = st.COPVent
	s.condensationS = st.CondensationS
	s.sinceTrace = st.SinceTrace
	for p := range s.wSurfMemo {
		s.wSurfMemo[p].tSurf = math.NaN()
		s.wSurfMemo[p].w = 0
	}
	return nil
}
