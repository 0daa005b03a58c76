package radiant

import (
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
)

// ModuleState is the radiant module's full mutable state, loops and PIDs
// included. TPref travels because SetTPref mutates it at runtime; each
// PID state carries its own setpoint. In the module's own copy the PIDs
// and Loops slots stay unused — the controllers and loops hold their
// state — and ExportState fills them.
type ModuleState struct {
	TPref float64

	// Latest observations; NaN until first data arrives.
	PanelDew   [NumPanels]float64
	ZoneTemp   [4]float64
	TMixTarget [NumPanels]float64
	FMixTarget [NumPanels]float64
	// SafeMode panels target dew + DewMargin + SafeModeRaiseK (set by the
	// degradation watchdog while the panel's humidity inputs are stale).
	SafeMode [NumPanels]bool

	PIDs  [NumPanels]pid.State
	Loops [NumPanels]hydraulic.MixingLoopState
}

// ExportState captures the module's mutable state.
func (m *Module) ExportState() ModuleState {
	st := m.st
	for i := range m.pids {
		st.PIDs[i] = m.pids[i].ExportState()
		st.Loops[i] = m.loops[i].ExportState()
	}
	return st
}

// RestoreState overwrites the module's mutable state.
func (m *Module) RestoreState(st ModuleState) {
	for i := range m.pids {
		m.pids[i].RestoreState(st.PIDs[i])
		m.loops[i].RestoreState(st.Loops[i])
	}
	m.st = st
}
