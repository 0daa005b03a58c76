// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Figure 10's control trajectories, Figure 11's COP
// comparison, Figures 12–15's networking results, and the ablations
// DESIGN.md calls out. Each experiment is a plain function returning a
// structured result so that both the cmd/experiments binary and the
// benchmark harness can drive it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
)

// Fig10Result captures the "Overall HVAC performance" experiment: the
// two-phase trial from 13:00 to 14:45 with the 14:05 (15 s) and 14:25
// (2 min) door openings.
type Fig10Result struct {
	// Recorder holds the per-subspace temperature and dew-point series
	// ("temp.subsp1" … "dew.subsp4", plus outdoor references).
	Recorder *trace.Recorder
	// Start is the simulated trial start (13:00).
	Start time.Time
	// TempConverge and DewConverge are the times from start until the
	// room average first reached within 0.3 K of the targets.
	TempConverge, DewConverge time.Duration
	// Event1DewBlipC is the subspace-1 dew excursion after the 15 s door
	// opening (paper: ≈0.6 °C).
	Event1DewBlipC float64
	// Event2RecoveryMin is the time to re-enter the target band after the
	// 2-minute opening (paper: ≈15 min).
	Event2RecoveryMin float64
	// CondensationS is the cumulative panel condensation time (must stay
	// ≈0).
	CondensationS float64
	// FinalTempC and FinalDewC are the end-of-trial room averages.
	FinalTempC, FinalDewC float64
	// FinalCOP is the whole-system COP at end of trial (paper Fig. 11).
	FinalCOP float64
	// SchedStats is the scheduler's per-component step accounting over the
	// trial.
	SchedStats []sim.ComponentStats
	// NetworkSteps is how many ticks the WSN network had frames to
	// resolve (wsn.Network.BusyTicks). It is value-dependent — adaptive
	// transmission sends when readings move — so it is pinned by the
	// golden epoch, not derivable from the §IV-B periods.
	NetworkSteps uint64
}

// Fig10 runs the 105-minute Figure 10 trial. Extra options are passed
// through to core.NewSystem — the determinism tests use this to prove an
// empty fault plan leaves the trial bit-identical.
func Fig10(ctx context.Context, seed uint64, opts ...core.Option) (*Fig10Result, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg, opts...)
	if err != nil {
		return nil, err
	}
	start := sys.Now()
	// Phase two events at the paper's wall-clock instants.
	event1 := start.Add(65 * time.Minute) // 14:05
	event2 := start.Add(85 * time.Minute) // 14:25
	sys.OpenDoorAt(event1, 15*time.Second)
	sys.OpenDoorAt(event2, 2*time.Minute)

	if err := sys.Run(ctx, 105*time.Minute); err != nil {
		return nil, err
	}

	res := &Fig10Result{
		Recorder:      sys.Recorder(),
		Start:         start,
		CondensationS: sys.CondensationSeconds(),
		FinalTempC:    sys.Room().AverageT(),
		FinalDewC:     sys.Room().AverageDewPoint(),
		FinalCOP:      sys.COPTotal().Value(),
		SchedStats:    sys.Engine().StepStats(),
		NetworkSteps:  sys.Network().BusyTicks(),
	}

	if at, ok := sys.Recorder().Series("temp.avg").FirstCrossing(25.3, true); ok {
		res.TempConverge = at.Sub(start)
	}
	if at, ok := sys.Recorder().Series("dew.avg").FirstCrossing(18.3, true); ok {
		res.DewConverge = at.Sub(start)
	}

	// Event 1: subspace-1 dew blip relative to just before the opening.
	dew1 := sys.Recorder().Series("dew.subsp1")
	baseline, _ := dew1.At(event1.Add(-30 * time.Second))
	peak := dew1.StatsBetween(event1, event1.Add(3*time.Minute)).Max
	res.Event1DewBlipC = peak - baseline

	// Event 2: first time after the 2-minute opening that the average dew
	// re-enters the band.
	dewAvg := sys.Recorder().Series("dew.avg")
	recovered := false
	for _, p := range dewAvg.Points() {
		if p.At.Before(event2.Add(2 * time.Minute)) {
			continue
		}
		if p.Value <= 18.4 {
			res.Event2RecoveryMin = p.At.Sub(event2).Minutes()
			recovered = true
			break
		}
	}
	if !recovered {
		res.Event2RecoveryMin = -1
	}
	return res, nil
}

// WriteTable renders the paper-style series (one row per 30 s, per-zone
// temperature and dew point) as CSV.
func (r *Fig10Result) WriteTable(w io.Writer) error {
	names := make([]string, 0, 2*thermal.NumZones+2)
	for z := 1; z <= thermal.NumZones; z++ {
		names = append(names, fmt.Sprintf("temp.subsp%d", z))
	}
	for z := 1; z <= thermal.NumZones; z++ {
		names = append(names, fmt.Sprintf("dew.subsp%d", z))
	}
	names = append(names, "temp.outdoor", "dew.outdoor")
	return r.Recorder.WriteCSV(w, names, r.Start, r.Start.Add(105*time.Minute), 30*time.Second)
}

// Summary renders the headline numbers next to the paper's.
func (r *Fig10Result) Summary() string {
	return fmt.Sprintf(
		"Fig10: temp 28.9→25 in %.0f min (paper ≈30), dew 27.4→18 in %.0f min (paper ≈30), "+
			"15s-door blip %.2f °C (paper ≈0.6), 2min-door recovery %.0f min (paper ≈15), condensation %.0f s",
		r.TempConverge.Minutes(), r.DewConverge.Minutes(),
		r.Event1DewBlipC, r.Event2RecoveryMin, r.CondensationS)
}
