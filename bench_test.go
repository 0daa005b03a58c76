package bubblezero_test

import (
	"context"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/exergy"
	"bubblezero/internal/experiments"
	"bubblezero/internal/multihop"
	"bubblezero/internal/psychro"
	"bubblezero/internal/report"
)

// benchHorizon keeps the networking-scenario benchmarks snappy; the
// cmd/experiments binary runs the full five-hour trials.
const benchHorizon = 2 * time.Hour

// Figure benchmarks run against a fresh suite so no scenario cached by an
// earlier benchmark can turn a measured simulation into a cache hit; the
// varying per-iteration seed keeps iterations of the suite-memoised
// benchmarks honest within a benchmark. Benchmarks that call an
// unmemoised experiment run seed 1 on every iteration instead, so the
// metrics they report do not depend on -benchtime.

// BenchmarkFig10Overall regenerates Figure 10: the 105-minute two-phase
// control trial with both door disturbances. Reported metrics are the
// convergence times (paper: ≈30 min for both temperature and dew point).
func BenchmarkFig10Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TempConverge.Minutes(), "temp-converge-min")
		b.ReportMetric(r.DewConverge.Minutes(), "dew-converge-min")
		b.ReportMetric(r.Event1DewBlipC, "door-blip-C")
		b.ReportMetric(r.CondensationS, "condensation-s")
	}
}

// BenchmarkFig11COP regenerates Figure 11: steady-state COP of AirCon,
// Bubble-C, Bubble-V, and BubbleZERO (paper: 2.80 / 4.52 / 2.82 / 4.07).
func BenchmarkFig11COP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AirCon, "cop-aircon")
		b.ReportMetric(r.BubbleC, "cop-bubble-c")
		b.ReportMetric(r.BubbleV, "cop-bubble-v")
		b.ReportMetric(r.BubbleZERO, "cop-bubblezero")
		b.ReportMetric(r.ImprovementPct, "improvement-pct")
	}
}

// BenchmarkFig12HistogramN regenerates Figure 12: decision accuracy, RAM,
// and modelled MSP430 CPU time versus histogram size N (paper: ≈98 %
// accuracy for large N, 130 B and ≈1.6 s at N = 60, default N = 40).
func BenchmarkFig12HistogramN(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.Fig12(context.Background(), uint64(i+1), benchHorizon,
			[]int{5, 20, 40, 60})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.N == 40 {
				b.ReportMetric(p.AccuracyPct, "accuracy-N40-pct")
			}
			if p.N == 60 {
				b.ReportMetric(float64(p.RAMBytes), "ram-N60-bytes")
				b.ReportMetric(p.CPUSeconds*1000, "cpu-N60-msp430-ms")
			}
		}
	}
}

// BenchmarkFig13AccuracyOverTime regenerates Figure 13: the rolling
// decision accuracy trajectory (paper: starts ≈87 %, stabilises 97–99 %).
func BenchmarkFig13AccuracyOverTime(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.Fig13(context.Background(), uint64(i+1), benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Accuracy.Stats().Min*100, "accuracy-min-pct")
		b.ReportMetric(r.FinalAccuracyPct, "accuracy-final-pct")
		b.ReportMetric(r.VarMinStableS, "varmin-stable-s")
	}
}

// BenchmarkFig14TsndAdaptation regenerates Figure 14: transmission-period
// adaptation across door events (paper: 64 s plateau, detection delay max
// 4 s / mean 2.7 s).
func BenchmarkFig14TsndAdaptation(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.Fig14(context.Background(), uint64(i+1), benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StableTsndS, "stable-tsnd-s")
		b.ReportMetric(r.MeanDelayS, "detect-delay-mean-s")
		b.ReportMetric(r.MaxDelayS, "detect-delay-max-s")
	}
}

// BenchmarkFig15TsndCDF regenerates Figure 15: the T_snd distribution and
// the battery-lifetime comparison (paper: mean ≈48 s; 3.2 y vs 0.7 y).
func BenchmarkFig15TsndCDF(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.Fig15(context.Background(), uint64(i+1), benchHorizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTsndS, "mean-tsnd-s")
		b.ReportMetric(r.AdaptiveYears, "adaptive-years")
		b.ReportMetric(r.FixedYears, "fixed-years")
	}
}

// BenchmarkAblationSupplyTempSweep measures the low-exergy design choice:
// whole-system COP across radiant supply temperatures.
func BenchmarkAblationSupplyTempSweep(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		pts, err := suite.AblationSupplyTemp(context.Background(), uint64(i+1),
			[]float64{12, 18, 21})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.TSupplyC == 18 {
				b.ReportMetric(p.SystemCOP, "system-cop-18C")
			}
			if p.TSupplyC == 12 {
				b.ReportMetric(p.SystemCOP, "system-cop-12C")
			}
		}
	}
}

// BenchmarkAblationNoCoupling measures what the control decomposition
// prevents: condensation seconds with the dew guard removed.
func BenchmarkAblationNoCoupling(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.AblationNoCoupling(context.Background(), uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GuardedCondensationS, "guarded-condensation-s")
		b.ReportMetric(r.UnguardedCondensationS, "unguarded-condensation-s")
	}
}

// BenchmarkAblationDesync measures the AC schedule desynchronisation's
// effect on collisions under fixed-mode channel pressure.
func BenchmarkAblationDesync(b *testing.B) {
	suite := experiments.NewSuite(0)
	for i := 0; i < b.N; i++ {
		r, err := suite.AblationDesync(context.Background(), uint64(i+1), 20*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.WithDesync.Collided), "collisions-desync")
		b.ReportMetric(float64(r.WithoutDesync.Collided), "collisions-random")
	}
}

// BenchmarkAlgorithm1Threshold micro-benchmarks one Algorithm 1 run at the
// paper's default N = 40 — the on-mote cost being modelled by
// CPUSecondsMSP430.
func BenchmarkAlgorithm1Threshold(b *testing.B) {
	hist, err := adaptive.NewHistogram(adaptive.DefaultN)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		hist.Add(float64(i%97) / 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := hist.Threshold(); !ok {
			b.Fatal("no threshold")
		}
	}
}

// BenchmarkPsychroDewPoint micro-benchmarks the Magnus dew point — the
// hottest function in the control path.
func BenchmarkPsychroDewPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = psychro.DewPoint(25+float64(i%10)/10, 60)
	}
}

// BenchmarkChillerCOP micro-benchmarks the lift-dependent chiller model.
func BenchmarkChillerCOP(b *testing.B) {
	c := exergy.DefaultChiller()
	for i := 0; i < b.N; i++ {
		_ = c.COP(18, 28.9+float64(i%5)/10)
	}
}

// BenchmarkMultihopWing measures the building-level future-work extension:
// flood versus type-mesh routing on the three-floor reference wing.
func BenchmarkMultihopWing(b *testing.B) {
	for _, routing := range []multihop.Routing{multihop.RoutingFlood, multihop.RoutingMesh} {
		b.Run(routing.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := multihop.DefaultConfig()
				cfg.Routing = routing
				cfg.TTL = 12
				wing := multihop.DefaultWing()
				net, err := multihop.BuildWing(cfg, wing, rand.New(rand.NewPCG(1, 1)))
				if err != nil {
					b.Fatal(err)
				}
				st, err := multihop.RunWingWorkload(net, wing, 20)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.DeliveryRatio()*100, "delivery-pct")
				b.ReportMetric(st.TxPerDelivery(), "tx-per-delivery")
				b.ReportMetric(st.AvgHops(), "avg-hops")
			}
		})
	}
}

// BenchmarkExergyAudit measures the second-law decomposition of the
// Figure 11 gain: minimum versus actual work per subsystem.
func BenchmarkExergyAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExergyAudit(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Name == "BubbleZERO (combined)" {
				b.ReportMetric(row.SecondLawEff(), "bubblezero-2ndlaw-eff")
			}
			if row.Name == "AirCon (8 °C air)" {
				b.ReportMetric(row.SecondLawEff(), "aircon-2ndlaw-eff")
			}
		}
	}
}

// BenchmarkReportGenerate measures the full evaluation pipeline — every
// figure, the exergy audit, and the ablations — through the parallel
// suite with a cold scenario cache each iteration. This is the end-to-end
// number the runner and the scenario memoization exist to improve.
func BenchmarkReportGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(0)
		if err := report.GenerateWith(context.Background(), suite, uint64(i+1), 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigAllSerialVsParallel pins the two wins separately visible in
// the trajectory: "serial" reproduces the pre-runner shape (each of
// Figures 12–15 re-simulates its own scenario, sequentially), "parallel"
// is the suite path (one memoized simulation, figures fanned across the
// pool). The ratio is the -fig all wall-clock improvement.
func BenchmarkFigAllSerialVsParallel(b *testing.B) {
	ctx := context.Background()
	const horizon = time.Hour
	ns := []int{5, 40}

	b.Run("serial", func(b *testing.B) {
		// Four sequential scenario simulations, one per figure — the Fig12
		// arm uses a throwaway width-1 suite so it still simulates its own.
		for i := 0; i < b.N; i++ {
			seed := uint64(i + 1)
			if _, err := experiments.NewSuite(1).Fig12(ctx, seed, horizon, ns); err != nil {
				b.Fatal(err)
			}
			for fig := 0; fig < 3; fig++ {
				sc, err := experiments.RunNetScenario(ctx, seed, horizon)
				if err != nil {
					b.Fatal(err)
				}
				switch fig {
				case 0:
					_ = experiments.Fig13FromScenario(sc)
				case 1:
					_ = experiments.Fig14FromScenario(sc)
				case 2:
					if _, err := experiments.Fig15FromScenario(ctx, sc, seed); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seed := uint64(i + 1)
			suite := experiments.NewSuite(runtime.NumCPU())
			err := suite.Pool().Run(ctx,
				func(ctx context.Context) error { _, err := suite.Fig12(ctx, seed, horizon, ns); return err },
				func(ctx context.Context) error { _, err := suite.Fig13(ctx, seed, horizon); return err },
				func(ctx context.Context) error { _, err := suite.Fig14(ctx, seed, horizon); return err },
				func(ctx context.Context) error { _, err := suite.Fig15(ctx, seed, horizon); return err },
			)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
