package hydraulic

import "math"

// Snapshot state for the water circuit. Each type below is held inline by
// its owner as st and exported as a copy. Exact-key memos (the mixing
// loop's effectiveness cache) stay outside st: a restored loop starts
// with a cold memo whose first miss recomputes the same floats from the
// same operands, so results are bit-identical either way.

// PumpState is a Pump's mutable state.
type PumpState struct {
	Voltage float64
	// Derate scales the delivered flow during a pump-degradation fault
	// (worn impeller, partial clog), valid only while Derated is set. The
	// electrical draw still follows the commanded voltage — a degraded
	// pump wastes energy.
	Derate  float64
	Derated bool
}

// ExportState captures the pump command and fault derate.
func (p *Pump) ExportState() PumpState { return p.st }

// RestoreState overwrites the pump command and fault derate.
func (p *Pump) RestoreState(st PumpState) { p.st = st }

// TankState is a Tank's mutable state.
type TankState struct {
	// Tripped holds the chiller off during a trip fault: the tank keeps
	// absorbing loop returns and standing losses, so its temperature
	// free-rises until the trip clears.
	Tripped      bool
	Temp         float64
	LoadW        float64 // heat returned by loops this step
	ThermalW     float64 // chiller thermal power last step
	ElecW        float64 // chiller electrical power last step
	ElecEnergyJ  float64 // integrated electrical energy
	ThermEnergyJ float64 // integrated thermal (removed-heat) energy
}

// ExportState captures the tank's thermal and accounting state.
func (t *Tank) ExportState() TankState { return t.st }

// RestoreState overwrites the tank's thermal and accounting state.
func (t *Tank) RestoreState(st TankState) { t.st = st }

// MixingLoopState is a MixingLoop's mutable state, pumps included. In the
// loop's own copy the Supply and Recycle slots stay unused — the pumps
// hold their state — and ExportState fills them from the pumps.
type MixingLoopState struct {
	Supply  PumpState
	Recycle PumpState
	TRet    float64 // water temperature in the return pipe
	FMix    float64
	TMix    float64
	Last    PanelResult
	// Surf is the lagged panel surface temperature: the metal panel has
	// thermal mass, so its surface relaxes toward the instantaneous
	// heat-exchange solution with time constant surfTauS rather than
	// jumping. NaN until the first step.
	Surf float64
}

// ExportState captures the loop's hydraulic state.
func (l *MixingLoop) ExportState() MixingLoopState {
	st := l.st
	st.Supply = l.Supply.ExportState()
	st.Recycle = l.Recycle.ExportState()
	return st
}

// RestoreState overwrites the loop's hydraulic state and resets the
// effectiveness memo to cold (first use recomputes bit-identically).
func (l *MixingLoop) RestoreState(st MixingLoopState) {
	l.Supply.RestoreState(st.Supply)
	l.Recycle.RestoreState(st.Recycle)
	l.st = st
	l.epsFlow = math.NaN()
	l.epsUA = 0
	l.mdotCp, l.eps = 0, 0
}
