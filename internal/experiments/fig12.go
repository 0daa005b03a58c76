package experiments

import (
	"fmt"
	"strings"

	"bubblezero/internal/adaptive"
)

// Fig12Point is one row of the histogram-size selection study.
type Fig12Point struct {
	N           int
	AccuracyPct float64
	RAMBytes    int
	CPUSeconds  float64 // modelled MSP430 execution time of Algorithm 1
}

// Fig12Result is the "Choosing the right N" study (paper Figure 12):
// accuracy climbs to ≈98 % for large N while RAM grows linearly (130 B at
// N = 60) and CPU time superlinearly (≈1.6 s at N = 60), motivating the
// default N = 40.
type Fig12Result struct {
	Points []Fig12Point
	// Scenario is the workload the replay used.
	Scenario *NetScenario
}

// fig12Device is one device's replay: for each histogram size, the
// decision accuracy and whether the scheduler made any decisions.
type fig12Device struct {
	frac    []float64
	decided []bool
}

// replayDevice feeds one recorded device stream once through a lockstep
// group with one scheduler per histogram size in ns, all scored against
// one shared exact-clustering ground truth. It only reads the scenario,
// so distinct devices replay concurrently.
func replayDevice(sc *NetScenario, id string, ns []int) (fig12Device, error) {
	g, err := adaptive.NewGroup(adaptive.DefaultConfig(sc.TsplS[id]), ns)
	if err != nil {
		return fig12Device{}, err
	}
	for _, v := range sc.Readings[id] {
		g.OnSample(v)
	}
	dev := fig12Device{frac: make([]float64, len(ns)), decided: make([]bool, len(ns))}
	for i := range ns {
		frac, decisions := g.Accuracy(i)
		dev.frac[i], dev.decided[i] = frac, decisions > 0
	}
	return dev, nil
}

// fig12Points averages each histogram size's accuracy over the devices
// that made decisions. devs is in sorted device order, so every mean is
// accumulated in the same order at any pool width.
func fig12Points(devs []fig12Device, ns []int) ([]Fig12Point, error) {
	pts := make([]Fig12Point, len(ns))
	for i, n := range ns {
		var sum float64
		devices := 0
		for _, dev := range devs {
			if dev.decided[i] {
				sum += dev.frac[i]
				devices++
			}
		}
		if devices == 0 {
			return nil, fmt.Errorf("experiments: no devices produced decisions")
		}
		hist, err := adaptive.NewHistogram(n)
		if err != nil {
			return nil, err
		}
		pts[i] = Fig12Point{
			N:           n,
			AccuracyPct: sum / float64(devices) * 100,
			RAMBytes:    hist.RAMBytes(),
			CPUSeconds:  adaptive.CPUSecondsMSP430(n),
		}
	}
	return pts, nil
}

// Summary renders the N-selection table.
func (r *Fig12Result) Summary() string {
	var b strings.Builder
	b.WriteString("Fig12: N selection (paper: ≈98% accuracy for large N; 130 B and ≈1.6 s at N=60)\n")
	b.WriteString("   N  accuracy%%  RAM(B)  MSP430 CPU(s)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %2d     %6.2f    %4d         %6.3f\n",
			p.N, p.AccuracyPct, p.RAMBytes, p.CPUSeconds)
	}
	return b.String()
}
