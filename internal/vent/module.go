package vent

import (
	"fmt"
	"math"

	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
)

// Config parameterises the ventilation module.
type Config struct {
	// TPref and RHPref are the occupant's preferred temperature (°C) and
	// relative humidity (%); together they define T_p_dew.
	TPref, RHPref float64
	// CO2TargetPPM is the indoor CO₂ target.
	CO2TargetPPM float64
	// HorizonS is the paper's T: the time budget for neutralising the
	// humidity/CO₂ error ("To promptly approach to the control targets in
	// T seconds (e.g., 60 seconds)").
	HorizonS float64
	// PullDownOffsetK is the dew-target depression applied while the room
	// is wetter than the target ("T_a,t_dew is set to T_r,t_dew − 2 °C to
	// quickly pull down the room air dew point").
	PullDownOffsetK float64
	// DewDeadbandK is the hysteresis above the room dew target before the
	// fans engage for dehumidification. Without it, sensor noise at the
	// threshold keeps the boxes cycling at high load and the equilibrium
	// ventilation power balloons far past the paper's ≈213 W.
	DewDeadbandK float64
	// ZoneVolumeM3 is the subspace volume used in the F_humd/F_CO2
	// sizing.
	ZoneVolumeM3 float64
	// Coil and Fan describe each airbox's hardware.
	Coil CoilConfig
	Fan  FanConfig
	// DewPID is the outlet-dew controller configuration.
	DewPID pid.Config
}

// DefaultConfig returns the paper's operating configuration: 25 °C / 18 °C
// dew target (≈65 % RH at 25 °C) with a 60 s control horizon.
func DefaultConfig() Config {
	return Config{
		TPref:           25,
		RHPref:          65.3, // RH at 25 °C whose dew point is 18 °C
		CO2TargetPPM:    800,
		HorizonS:        60,
		PullDownOffsetK: 2,
		DewDeadbandK:    0.35,
		ZoneVolumeM3:    15,
		Coil:            DefaultCoil(),
		Fan:             DefaultFan(),
		DewPID: pid.Config{
			Kp:      0.4,
			Ki:      0.02,
			OutMin:  0,
			OutMax:  2,
			Reverse: true, // measured dew above target → more coil flow
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HorizonS <= 0 {
		return fmt.Errorf("vent: HorizonS must be > 0, got %v", c.HorizonS)
	}
	if c.ZoneVolumeM3 <= 0 {
		return fmt.Errorf("vent: ZoneVolumeM3 must be > 0, got %v", c.ZoneVolumeM3)
	}
	if c.PullDownOffsetK < 0 {
		return fmt.Errorf("vent: PullDownOffsetK must be >= 0, got %v", c.PullDownOffsetK)
	}
	if c.DewDeadbandK < 0 {
		return fmt.Errorf("vent: DewDeadbandK must be >= 0, got %v", c.DewDeadbandK)
	}
	if c.CO2TargetPPM <= 0 {
		return fmt.Errorf("vent: CO2TargetPPM must be > 0, got %v", c.CO2TargetPPM)
	}
	if err := c.Coil.Validate(); err != nil {
		return err
	}
	if err := c.Fan.Validate(); err != nil {
		return err
	}
	return c.DewPID.Validate()
}

// humidityRatioAtm is psychro.HumidityRatio at sea-level pressure, in the
// two-argument shape memo2 caches.
func humidityRatioAtm(t, rh float64) float64 {
	return psychro.HumidityRatio(t, rh, psychro.AtmPressure)
}

// memo2 caches one float64 result keyed on two exact float64 arguments.
// The zero value is primed with NaN keys, which can never match, so the
// first lookup always computes.
type memo2 struct {
	a, b, out float64
	valid     bool
}

func (m *memo2) get(a, b float64, f func(a, b float64) float64) float64 {
	//bzlint:allow floateq exact-key memo; NaN keys never match and force recomputation
	if m.valid && a == m.a && b == m.b {
		return m.out
	}
	m.a, m.b = a, b
	m.out = f(a, b)
	m.valid = true
	return m.out
}

// Module is the distributed ventilation controller (Control-V-1/2/3) plus
// its four airboxes. Observations arrive via Observe*; Step runs the
// §III-C control law and processes the boxes.
type Module struct {
	cfg   Config
	tank  *hydraulic.Tank
	boxes [NumBoxes]*Airbox

	outdoor func() psychro.State
	co2Out  float64 // outdoor CO₂ used as supply concentration

	st ModuleState // Boxes slots unused: see the type

	// Exact-argument memos for the psychrometric conversions the per-tick
	// control law repeats on slowly-changing inputs: observations only
	// change when a broadcast arrives, while the control law reruns every
	// tick.
	tpDewMemo   memo2           // (TPref, RHPref) -> preferred dew point
	roomDewMemo memo2           // (avg temp, avg rh) -> room dew point
	zoneWMemo   [NumBoxes]memo2 // (zone temp, zone rh) -> humidity ratio
	sizingMemo  struct {
		target            float64
		wTarget, wTrigger float64
		valid             bool
	}
}

var _ sim.Component = (*Module)(nil)

// New builds the module. outdoor supplies the intake air state; co2Out is
// the supply-air CO₂ concentration (ppm).
func New(cfg Config, tank *hydraulic.Tank, outdoor func() psychro.State, co2Out float64) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tank == nil {
		return nil, fmt.Errorf("vent: tank must not be nil")
	}
	if outdoor == nil {
		return nil, fmt.Errorf("vent: outdoor must not be nil")
	}
	m := &Module{cfg: cfg, tank: tank, outdoor: outdoor, co2Out: co2Out}
	m.st.TPref, m.st.RHPref = cfg.TPref, cfg.RHPref
	m.st.TSupp = math.NaN()
	for i := range m.boxes {
		pump := &hydraulic.Pump{MaxFlowLpm: cfg.Coil.MaxFlowLpm, MaxPowerW: 2, StandbyW: 0.1}
		box, err := NewAirbox(cfg.Coil, cfg.Fan, pump, cfg.DewPID)
		if err != nil {
			return nil, err
		}
		m.boxes[i] = box
		m.st.Zones[i] = ZoneObsState{Temp: math.NaN(), RH: math.NaN(), CO2: math.NaN()}
		m.st.AirboxDew[i] = math.NaN()
	}
	return m, nil
}

// Name implements sim.Component.
func (m *Module) Name() string { return "vent.module" }

// Box exposes one airbox for instrumentation.
func (m *Module) Box(i int) *Airbox {
	if i < 0 || i >= NumBoxes {
		return nil
	}
	return m.boxes[i]
}

// ObserveZoneTemp feeds a subspace temperature reading (°C).
func (m *Module) ObserveZoneTemp(zone int, t float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(t) {
		m.st.Zones[zone].Temp = t
	}
}

// ObserveZoneRH feeds a subspace relative-humidity reading (%).
func (m *Module) ObserveZoneRH(zone int, rh float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(rh) {
		m.st.Zones[zone].RH = rh
	}
}

// ObserveZoneCO2 feeds a subspace CO₂ reading (ppm).
func (m *Module) ObserveZoneCO2(zone int, ppm float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(ppm) {
		m.st.Zones[zone].CO2 = ppm
	}
}

// ObserveSupplyTemp feeds the radiant tank supply temperature T_supp from
// Control-C-1's broadcasts — the coupling that lets the ventilation module
// keep the room dew point below the radiant water temperature.
func (m *Module) ObserveSupplyTemp(t float64) {
	if !math.IsNaN(t) {
		m.st.TSupp = t
	}
}

// ObserveAirboxDew feeds an SHT75 outlet dew-point measurement for a box.
func (m *Module) ObserveAirboxDew(box int, dew float64) {
	if box >= 0 && box < NumBoxes && !math.IsNaN(dew) {
		m.st.AirboxDew[box] = dew
	}
}

// SetBoxDewUntrusted marks (or clears) a box's outlet-dew measurement as
// untrusted. While set, the coil PID runs its integrator frozen against
// the model-predicted outlet dew point rather than chasing the frozen
// last measurement. Out-of-range boxes are ignored.
func (m *Module) SetBoxDewUntrusted(box int, on bool) {
	if box < 0 || box >= NumBoxes {
		return
	}
	m.st.BoxUntrusted[box] = on
	m.boxes[box].SetDewIntegratorFrozen(on)
}

// BoxDewUntrusted reports whether a box's dew measurement is untrusted.
func (m *Module) BoxDewUntrusted(box int) bool {
	return box >= 0 && box < NumBoxes && m.st.BoxUntrusted[box]
}

// DeratePumps limits every coil pump to frac of its commanded flow (1
// restores healthy pumps) — the fault layer's pump-degradation hook.
func (m *Module) DeratePumps(frac float64) {
	for _, b := range m.boxes {
		b.pump.SetDerate(frac)
	}
}

// TPDew returns the preferred dew point T_p_dew derived from the occupant
// preference.
func (m *Module) TPDew() float64 {
	return m.tpDewMemo.get(m.st.TPref, m.st.RHPref, psychro.DewPoint)
}

// TaTarget returns the current airbox outlet dew target T_a,t_dew.
func (m *Module) TaTarget() float64 { return m.st.TaTarget }

// RoomDew returns the observed room dew point (from averaged zone
// temperature and humidity), or NaN before data arrives.
func (m *Module) RoomDew() float64 {
	var tSum, rhSum float64
	n := 0
	for _, z := range m.st.Zones {
		if !math.IsNaN(z.Temp) && !math.IsNaN(z.RH) {
			tSum += z.Temp
			rhSum += z.RH
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return m.roomDewMemo.get(tSum/float64(n), rhSum/float64(n), psychro.DewPoint)
}

// PowerW returns the total electrical draw of all boxes (fans + coil
// pumps).
func (m *Module) PowerW() float64 {
	var sum float64
	for _, b := range m.boxes {
		sum += b.PowerW()
	}
	return sum
}

// CoilPumpPowerW returns only the coil pump draw — the paper's COP
// measurement boundary for the ventilation module covers the chiller and
// pumps ("we also install power meters at major energy consuming devices,
// including chillers and pumps"), not the small DC fans.
func (m *Module) CoilPumpPowerW() float64 {
	var sum float64
	for _, b := range m.boxes {
		sum += b.pump.PowerW()
	}
	return sum
}

// CoilLoadW returns the total thermal load the boxes placed on the cold
// loop in the last step — the paper's "absorbed heat from inhaled air".
func (m *Module) CoilLoadW() float64 {
	var sum float64
	for _, b := range m.boxes {
		sum += b.CoilLoadW()
	}
	return sum
}

// VentInputFor returns the thermal-model boundary condition produced by a
// box in the last step.
func (m *Module) VentInputFor(box int) (volFlow float64, supply psychro.State, supplyCO2 float64) {
	if box < 0 || box >= NumBoxes {
		return 0, psychro.State{}, 0
	}
	b := m.boxes[box]
	return b.FanFlow(), b.Outlet(), m.co2Out
}

// Step implements sim.Component: one pass of the §III-C control law.
//
//bzlint:hotpath
func (m *Module) Step(env *sim.Env) {
	dt := env.Dt()
	out := m.outdoor()

	// Room target dew point: T_r,t_dew = min{T_p_dew, T_supp}.
	trTarget := m.TPDew()
	if !math.IsNaN(m.st.TSupp) && m.st.TSupp < trTarget {
		trTarget = m.st.TSupp
	}

	// Airbox outlet target: depressed while pulling down, equal while
	// maintaining.
	roomDew := m.RoomDew()
	switch {
	case math.IsNaN(roomDew):
		m.st.TaTarget = trTarget
	case trTarget < roomDew:
		m.st.TaTarget = trTarget - m.cfg.PullDownOffsetK
	default:
		m.st.TaTarget = trTarget
	}

	for i, b := range m.boxes {
		b.SetDewTarget(m.st.TaTarget)

		// Fan sizing: F_vent = max{F_humd, F_CO2}. trTarget is the sizing
		// dew target (the room target, not the depressed box target).
		z := &m.st.Zones[i]
		fHumd := m.humidityFlow(z, &m.zoneWMemo[i], b, trTarget)
		fCO2 := m.co2Flow(z)
		b.SetFanFlow(math.Max(fHumd, fCO2))

		// Coil control runs only while air moves; an idle box parks its
		// pump (no point chilling a coil nothing flows over).
		if b.FanFlow() > 0 {
			measured := m.st.AirboxDew[i]
			if math.IsNaN(measured) || m.st.BoxUntrusted[i] {
				measured = b.Outlet().DewPoint()
			}
			b.UpdateDewControl(measured, dt)
		} else {
			b.ParkPump()
		}

		b.Process(out, m.tank, dt)
	}
}

// humidityFlow sizes the ventilation flow (m³/s) needed to pull the zone
// humidity ratio to the target within the horizon, given the current box
// outlet dryness. target is the room dew target (min of preference and
// T_supp) computed once per Step.
func (m *Module) humidityFlow(z *ZoneObsState, wMemo *memo2, b *Airbox, target float64) float64 {
	if math.IsNaN(z.Temp) || math.IsNaN(z.RH) {
		return 0
	}
	wZone := wMemo.get(z.Temp, z.RH, humidityRatioAtm)
	// wTarget and wTrigger depend only on the sizing target (the deadband
	// is fixed), which changes only when a T_supp broadcast moves it; the
	// memo holds both conversions. A NaN target never matches and
	// recomputes (propagating NaN exactly as the direct calls would).
	//bzlint:allow floateq exact-key memo on the sizing target; NaN never matches
	if !(m.sizingMemo.valid && target == m.sizingMemo.target) {
		m.sizingMemo.target = target
		m.sizingMemo.wTarget = psychro.HumidityRatioFromDewPoint(target, psychro.AtmPressure)
		m.sizingMemo.wTrigger = psychro.HumidityRatioFromDewPoint(target+m.cfg.DewDeadbandK, psychro.AtmPressure)
		m.sizingMemo.valid = true
	}
	wTarget := m.sizingMemo.wTarget
	// Hysteresis: the zone must exceed the target dew point by the
	// deadband before dehumidification kicks in.
	if wZone <= m.sizingMemo.wTrigger {
		return 0
	}
	wSupply := b.Outlet().W
	denom := wZone - wSupply
	if denom <= 1e-6 {
		// Supply no drier than the room: full blast is the best the box
		// can do (the coil PID will deepen the dryness).
		return b.MaxFanFlow()
	}
	return m.cfg.ZoneVolumeM3 * (wZone - wTarget) / denom / m.cfg.HorizonS
}

// co2Flow sizes the ventilation flow (m³/s) needed to pull the zone CO₂
// concentration to the target within the horizon.
func (m *Module) co2Flow(z *ZoneObsState) float64 {
	if math.IsNaN(z.CO2) || z.CO2 <= m.cfg.CO2TargetPPM {
		return 0
	}
	denom := z.CO2 - m.co2Out
	if denom <= 1 {
		return 0
	}
	return m.cfg.ZoneVolumeM3 * (z.CO2 - m.cfg.CO2TargetPPM) / denom / m.cfg.HorizonS
}
