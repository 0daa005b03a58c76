package core

import (
	"math"

	"bubblezero/internal/radiant"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/vent"
)

// watchdog implements the graceful-degradation state machine for stale
// sensor inputs. It is only constructed (and only registered on the
// engine) when a fault plan arms it, so fault-free runs carry zero
// watchdog work and stay bit-identical to the pinned golden trace.
//
// Freshness is tracked per consumed input. Each input moves through
// three stages as its age grows:
//
//	fresh ──(age > staleAfter)──► degraded ──(fresh broadcast)──► fresh
//
// with a kind-specific degraded behaviour:
//
//   - zone temperature: substitute the freshest other zone's last value
//     into the radiant and ventilation observers (neighbour fallback);
//     if every zone is stale, freeze the radiant PID integrators so the
//     controllers coast on their last proportional point instead of
//     winding up against a frozen measurement.
//   - zone humidity / under-panel dew: the condensation guard cannot be
//     trusted, so the affected panel enters safe mode — its dew margin
//     is raised by Radiant.SafeModeRaiseK (T_mix rises, trading cooling
//     capacity for a guaranteed dry ceiling).
//   - airbox outlet dew: the box falls back to its physical coil model's
//     outlet dew and freezes the dew PID integrator.
//   - supply temperature: last-good-hold only; the 5 s AC broadcast is
//     redundant enough that substitution would add nothing.
//
// All transitions are pure functions of simulated time and the message
// stream, so degradation is as deterministic as the faults that cause
// it.
type watchdog struct {
	s      *System
	staleS float64
	st     WatchdogState
}

func newWatchdog(s *System) *watchdog {
	return &watchdog{s: s, staleS: s.cfg.DegradeStaleAfter.Seconds()}
}

// Freshness notes, called from the network subscription callbacks. The
// timestamps come from the engine clock, which the network steps under.
func (w *watchdog) nowS() float64 {
	return float64(w.s.engine.Clock().Tick()) * w.s.cfg.Step.Seconds()
}

func (w *watchdog) noteZoneTemp(zone int, v float64) {
	if zone >= 0 && zone < thermal.NumZones {
		w.st.TempAtS[zone] = w.nowS()
		w.st.TempVal[zone] = v
	}
}

func (w *watchdog) noteZoneRH(zone int) {
	if zone >= 0 && zone < thermal.NumZones {
		w.st.RHAtS[zone] = w.nowS()
	}
}

func (w *watchdog) notePanelDew(panel int) {
	if panel >= 0 && panel < radiant.NumPanels {
		w.st.PanelAtS[panel] = w.nowS()
	}
}

func (w *watchdog) noteBoxDew(box int) {
	if box >= 0 && box < vent.NumBoxes {
		w.st.BoxAtS[box] = w.nowS()
	}
}

func (w *watchdog) noteSupplyTemp() { w.st.SupplyAtS = w.nowS() }

// step runs once per tick, after the network delivery and before the
// control modules, so a degradation decision is made on this tick's
// freshest possible picture and the substituted observations are the
// ones the modules act on.
//
//bzlint:hotpath
func (w *watchdog) step(env *sim.Env) {
	now := env.Elapsed().Seconds()

	// Zone temperatures: neighbour fallback, then all-stale freeze.
	staleTemps := 0
	for z := 0; z < thermal.NumZones; z++ {
		stale := now-w.st.TempAtS[z] > w.staleS
		if stale {
			staleTemps++
		}
		if stale != w.st.TempSub[z] {
			w.st.TempSub[z] = stale
			w.st.Transitions++
		}
		if !stale {
			continue
		}
		// Freshest other zone; ties break toward the lowest index so the
		// substitution source is deterministic.
		best, bestAt := -1, math.Inf(-1)
		for o := 0; o < thermal.NumZones; o++ {
			if o == z || now-w.st.TempAtS[o] > w.staleS {
				continue
			}
			if w.st.TempAtS[o] > bestAt {
				best, bestAt = o, w.st.TempAtS[o]
			}
		}
		if best >= 0 {
			w.s.radiantMod.ObserveZoneTemp(z, w.st.TempVal[best])
			w.s.ventMod.ObserveZoneTemp(z, w.st.TempVal[best])
		}
	}
	if frozen := staleTemps == thermal.NumZones; frozen != w.st.Frozen {
		w.st.Frozen = frozen
		w.st.Transitions++
		w.s.radiantMod.SetIntegratorsFrozen(frozen)
	}

	// Condensation guard inputs: a panel's dew sentinel, or both room
	// humidity channels it fuses with, going dark puts it in safe mode.
	for p := 0; p < radiant.NumPanels; p++ {
		zs := radiant.PanelZones(p)
		rhDark := now-w.st.RHAtS[zs[0]] > w.staleS && now-w.st.RHAtS[zs[1]] > w.staleS
		unsafe := now-w.st.PanelAtS[p] > w.staleS || rhDark
		if unsafe != w.st.SafeMode[p] {
			w.st.SafeMode[p] = unsafe
			w.st.Transitions++
			w.s.radiantMod.SetSafeMode(p, unsafe)
		}
	}

	// Airbox dew: fall back to the coil model's outlet state.
	for b := 0; b < vent.NumBoxes; b++ {
		stale := now-w.st.BoxAtS[b] > w.staleS
		if stale != w.st.BoxStale[b] {
			w.st.BoxStale[b] = stale
			w.st.Transitions++
			w.s.ventMod.SetBoxDewUntrusted(b, stale)
		}
	}

	w.st.SupplyOld = now-w.st.SupplyAtS > w.staleS
}

// DegradationState is a snapshot of the watchdog's current decisions.
type DegradationState struct {
	// Armed reports whether a fault plan armed the watchdog at all.
	Armed bool
	// TempSubstituted marks zones running on a neighbour's temperature.
	TempSubstituted [thermal.NumZones]bool
	// IntegratorsFrozen is set while every zone temperature is stale.
	IntegratorsFrozen bool
	// SafeMode marks panels running with the raised condensation margin.
	SafeMode [radiant.NumPanels]bool
	// BoxDewUntrusted marks airboxes coasting on modelled outlet dew.
	BoxDewUntrusted [vent.NumBoxes]bool
	// SupplyStale reports a stale supply-temperature broadcast.
	SupplyStale bool
	// Transitions counts state-machine edges since the start of the run.
	Transitions int
}

// Degradation returns the watchdog's current state; the zero value (not
// armed) when the system runs without a fault plan.
func (s *System) Degradation() DegradationState {
	w := s.watch
	if w == nil {
		return DegradationState{}
	}
	return DegradationState{
		Armed:             true,
		TempSubstituted:   w.st.TempSub,
		IntegratorsFrozen: w.st.Frozen,
		SafeMode:          w.st.SafeMode,
		BoxDewUntrusted:   w.st.BoxStale,
		SupplyStale:       w.st.SupplyOld,
		Transitions:       w.st.Transitions,
	}
}
