package experiments

import (
	"context"
	"time"

	"bubblezero/internal/runner"
)

// scenarioCacheEntries bounds the scenario memo: each retained scenario
// holds every recorded sample of a multi-hour run (~tens of MB at the
// five-hour horizon), so the cache keeps only the few most recent
// (seed, duration) keys. Evaluation suites touch exactly one key; seed
// sweeps cycle through the bound FIFO-style.
const scenarioCacheEntries = 4

// Suite bundles the concurrency substrate for the experiment battery: a
// bounded worker pool for fanning out independent runs and a singleflight
// scenario cache so every figure that replays the §V-C workload shares
// one simulation per (seed, duration).
//
// Results are deterministic at any pool width: jobs write into per-index
// slots, each simulation owns its RNG streams, and fleet aggregations
// iterate devices in sorted order.
type Suite struct {
	pool      *runner.Pool
	scenarios *runner.ScenarioCache[*NetScenario]
}

// NewSuite returns a suite with the given worker count (<= 0 selects
// NumCPU) and a fresh scenario cache.
func NewSuite(workers int) *Suite {
	return &Suite{
		pool:      runner.NewPool(workers),
		scenarios: runner.NewScenarioCache[*NetScenario](scenarioCacheEntries),
	}
}

// Default is the suite behind the package-level experiment functions. It
// spans the whole process so repeated figure calls (benchmarks, the
// cmd/experiments binary, tests) share scenario simulations.
var Default = NewSuite(0)

// Pool returns the suite's worker pool.
func (s *Suite) Pool() *runner.Pool { return s.pool }

// NetScenario returns the memoized §V-C scenario for (seed, d), running
// the simulation at most once per key across all concurrent callers. The
// scenario is shared: callers must treat it as read-only.
func (s *Suite) NetScenario(ctx context.Context, seed uint64, d time.Duration) (*NetScenario, error) {
	return s.scenarios.Get(ctx, seed, d, RunNetScenario)
}

// CachedScenarios returns how many scenarios the suite currently retains.
func (s *Suite) CachedScenarios() int { return s.scenarios.Len() }

// PurgeScenarios drops every retained scenario, releasing their memory.
func (s *Suite) PurgeScenarios() { s.scenarios.Purge() }

// Fig12 is the N-selection study against the suite's cached scenario.
// Each device stream is replayed once, through every histogram size in
// lockstep, with the devices fanned across the pool.
func (s *Suite) Fig12(ctx context.Context, seed uint64, d time.Duration, ns []int) (*Fig12Result, error) {
	if len(ns) == 0 {
		ns = []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 70}
	}
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	ids := sortedKeys(sc.Readings)
	devs := make([]fig12Device, len(ids))
	err = s.pool.ForEach(ctx, len(ids), func(_ context.Context, i int) error {
		dev, err := replayDevice(sc, ids[i], ns)
		devs[i] = dev
		return err
	})
	if err != nil {
		return nil, err
	}
	pts, err := fig12Points(devs, ns)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Scenario: sc, Points: pts}, nil
}

// Fig13 extracts the accuracy trajectory from the cached scenario.
func (s *Suite) Fig13(ctx context.Context, seed uint64, d time.Duration) (*Fig13Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig13FromScenario(sc), nil
}

// Fig14 extracts one device's adaptation behaviour from the cached
// scenario.
func (s *Suite) Fig14(ctx context.Context, seed uint64, d time.Duration) (*Fig14Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig14FromScenario(sc), nil
}

// Fig15 extracts the T_snd distribution from the cached scenario and runs
// the (uncached, one-hour) fixed-mode baseline for the lifetime
// comparison.
func (s *Suite) Fig15(ctx context.Context, seed uint64, d time.Duration) (*Fig15Result, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	return Fig15FromScenario(ctx, sc, seed)
}

// AblationSupplyTemp fans the per-temperature steady-state runs across
// the pool; each run derives its own system, so results are independent
// of worker count.
func (s *Suite) AblationSupplyTemp(ctx context.Context, seed uint64, temps []float64) ([]SupplyTempPoint, error) {
	if len(temps) == 0 {
		temps = []float64{10, 14, 18, 21}
	}
	out := make([]SupplyTempPoint, len(temps))
	err := s.pool.ForEach(ctx, len(temps), func(ctx context.Context, i int) error {
		p, err := supplyTempPoint(ctx, seed, temps[i])
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationNoCoupling runs the guarded and unguarded systems concurrently.
func (s *Suite) AblationNoCoupling(ctx context.Context, seed uint64) (*NoCouplingResult, error) {
	var res NoCouplingResult
	err := s.pool.Run(ctx,
		func(ctx context.Context) error {
			v, err := runNoCoupling(ctx, seed, false)
			res.GuardedCondensationS = v
			return err
		},
		func(ctx context.Context) error {
			v, err := runNoCoupling(ctx, seed, true)
			res.UnguardedCondensationS = v
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// AblationDesync runs the desynchronised and random-offset systems
// concurrently.
func (s *Suite) AblationDesync(ctx context.Context, seed uint64, d time.Duration) (*DesyncResult, error) {
	var res DesyncResult
	err := s.pool.Run(ctx,
		func(ctx context.Context) error {
			st, err := runDesync(ctx, seed, d, true)
			res.WithDesync = st
			return err
		},
		func(ctx context.Context) error {
			st, err := runDesync(ctx, seed, d, false)
			res.WithoutDesync = st
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// AblationHistogramReset replays the cached scenario with and without
// periodic histogram resets, the two replays in parallel.
func (s *Suite) AblationHistogramReset(ctx context.Context, seed uint64, d time.Duration, resetEvery time.Duration) (*HistogramResetResult, error) {
	sc, err := s.NetScenario(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	var res HistogramResetResult
	err = s.pool.Run(ctx,
		func(context.Context) error {
			v, err := replayHistogramReset(sc, resetEvery, true)
			res.WithResetPct = v
			return err
		},
		func(context.Context) error {
			v, err := replayHistogramReset(sc, resetEvery, false)
			res.WithoutResetPct = v
			return err
		})
	if err != nil {
		return nil, err
	}
	return &res, nil
}
