package thermal

import "math"

// RoomState is a Room's full mutable state, held inline by the room as st
// and exported as-is for digital-twin snapshots: the prognostic zone
// arrays, the installed climate, and the raw actuator/load input rows,
// laid out as structure-of-arrays with the setter-side precomputation the
// kernel consumes directly — SetVent resolves the supply air density
// (memoized on the exact supply state) into mass-flow coefficients, and
// SetOccupants folds the per-person loads into per-zone totals, so the
// per-tick pass is pure multiply-adds. Inputs are restored as the raw
// folded arrays rather than by replaying the setters — SetVent's density
// memo needs the supply pressure, which the folded rows no longer carry.
type RoomState struct {
	T, W, CO2 [NumZones]float64

	Climate Climate

	VentVol    [NumZones]float64 // supply volume flow, m³/s
	VentMdot   [NumZones]float64 // supply dry-air mass flow, kg/s
	VentMdotCp [NumZones]float64 // VentMdot · cpAir, W/K
	VentT      [NumZones]float64 // supply dry bulb, °C
	VentW      [NumZones]float64 // supply humidity ratio, kg/kg
	VentCO2    [NumZones]float64 // supply CO₂, ppm

	PanelExtract [NumZones]float64 // W removed by radiant panels
	Condensation [NumZones]float64 // kg/s moisture removed on cold surfaces

	Occupants [NumZones]int
	OccQ      [NumZones]float64 // occupant sensible heat, W
	OccW      [NumZones]float64 // occupant moisture, kg/s
	OccC      [NumZones]float64 // occupant CO₂, ppm·m³/s

	DoorRemainingS   float64 // seconds the door stays open
	WindowRemainingS float64
	DoorOpenings     int
	WindowOpenings   int
}

// ExportState captures the room's mutable state. Derived caches and the
// supply-density memo live outside st: both recompute from the prognostic
// state with the same pure functions, so a restored room reads the same
// bits a warm one would.
func (r *Room) ExportState() RoomState { return r.st }

// RestoreState overwrites the room's mutable state, then refolds the
// boundary coefficients from the exact exported (Dew, RhoOut) terms,
// keys the density memo to NaN so the next SetVent recomputes
// unconditionally, and recomputes the derived averages.
func (r *Room) RestoreState(st RoomState) {
	r.st = st
	r.foldClimate()
	for i := range r.ventRho {
		r.ventRho[i].t = math.NaN()
		r.ventRho[i].p = math.NaN()
		r.ventRho[i].rho = 0
	}
	r.recomputeDerived()
}
