package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/runner"
	"bubblezero/internal/thermal"
)

// defaultEpochTicks is the epoch length when Config.EpochTicks is 0. It
// only trades scheduling granularity (cancellation latency, shard
// rebalancing points) against per-epoch dispatch overhead; results are
// epoch-invariant because sim.Engine.RunTicks steps every component on
// every tick, so a run boundary leaves nothing pending.
const defaultEpochTicks = 512

// Fleet is N independent BubbleZERO buildings stepped in lockstep epochs,
// sharded across a bounded worker pool. Within an epoch each shard runs
// its buildings' engines one after another.
type Fleet struct {
	cfg       Config
	shards    [][]*core.System // disjoint contiguous blocks of buildings
	buildings []*core.System   // index order, buildings[i] is building i
	pool      *runner.Pool

	epochTicks       uint64
	step             time.Duration
	ticks            uint64 // ticks advanced so far
	bytesPerBuilding int64  // measured live-heap delta at construction

	// Live-mutation queue and journal (event.go). evMu guards both:
	// Apply may race RunTicks, which drains the queue at epoch
	// boundaries. evMu is innermost: it is taken only in Apply, Journal,
	// takePending and record, none of which takes another lock.
	evMu      sync.Mutex
	pendingEv []Event
	journal   []AppliedEvent
}

// New validates cfg, instantiates the fleet's buildings in parallel, and
// partitions them into shards. Construction measures the live-heap cost
// per building and fails if it exceeds cfg.MemBudgetBytes.
func New(ctx context.Context, cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = runtime.NumCPU()
	}
	if nShards > cfg.Buildings {
		nShards = cfg.Buildings
	}
	epoch := uint64(cfg.EpochTicks)
	if epoch == 0 {
		epoch = defaultEpochTicks
	}

	quiet, sampled, err := sharedHandles(cfg)
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		cfg:        cfg,
		buildings:  make([]*core.System, cfg.Buildings),
		pool:       runner.NewPool(nShards),
		epochTicks: epoch,
		step:       cfg.Base.Step,
	}

	// Live-heap cost per building: GC-settled HeapAlloc delta across the
	// construction of all N buildings, amortized. This is the number the
	// memory budget gates and the fleet benchmark reports.
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// Buildings are independent, so construction parallelises across the
	// same pool that will step them. Each job writes only its own slot.
	if err := f.pool.ForEach(ctx, cfg.Buildings, func(_ context.Context, i int) error {
		sys, err := newBuilding(&cfg, quiet, sampled, i)
		if err != nil {
			return fmt.Errorf("fleet: building %d: %w", i, err)
		}
		f.buildings[i] = sys
		return nil
	}); err != nil {
		return nil, err
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d > 0 {
		f.bytesPerBuilding = d / int64(cfg.Buildings)
	}
	if cfg.MemBudgetBytes > 0 && f.bytesPerBuilding > cfg.MemBudgetBytes {
		return nil, fmt.Errorf("fleet: %d buildings cost %d B/building live heap, over the %d B budget",
			cfg.Buildings, f.bytesPerBuilding, cfg.MemBudgetBytes)
	}

	// Contiguous block partition: shard s owns [s*N/S, (s+1)*N/S). Block
	// assignment keeps each shard's buildings adjacent in memory and makes
	// the ownership trivially disjoint.
	f.shards = make([][]*core.System, nShards)
	for s := 0; s < nShards; s++ {
		lo := s * cfg.Buildings / nShards
		hi := (s + 1) * cfg.Buildings / nShards
		f.shards[s] = f.buildings[lo:hi:hi]
	}
	return f, nil
}

// sharedHandles builds the one (or two) validated read-only config
// handles every building aliases: a quiet template with tracing disabled,
// and — only when sampling is on — a template with the Base trace period.
func sharedHandles(cfg Config) (quiet, sampled *core.Shared, err error) {
	quietCfg := cfg.Base
	quietCfg.TracePeriod = 0
	quiet, err = core.NewShared(quietCfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.SampleEvery > 0 {
		sampled, err = core.NewShared(cfg.Base)
		if err != nil {
			return nil, nil, err
		}
	}
	return quiet, sampled, nil
}

// newBuilding assembles building i exactly as Standalone does: shared
// template + the deterministic per-building parameterisation.
//
//bzlint:mutroute fleet.Apply construction: deterministic per-building parameterisation before the first tick
func newBuilding(cfg *Config, quiet, sampled *core.Shared, i int) (*core.System, error) {
	p := cfg.ParamsFor(i)
	opts := make([]core.Option, 0, 3)
	opts = append(opts, core.WithSeed(p.Seed))
	if p.Climate {
		opts = append(opts, core.WithOutdoor(p.OutdoorC, p.OutdoorDewC))
	}
	if cfg.FaultPlan != nil {
		if plan := cfg.FaultPlan(i, p.Seed); plan != nil {
			opts = append(opts, core.WithFaultPlan(plan))
		}
	}
	sh := quiet
	isSampled := cfg.SampleEvery > 0 && i%cfg.SampleEvery == 0
	if isSampled {
		sh = sampled
	}
	sys, err := sh.NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	for z := 0; z < thermal.NumZones; z++ {
		if n := p.Occupants[z]; n > 0 {
			sys.Room().SetOccupants(thermal.ZoneID(z), n)
		}
	}
	if isSampled && cfg.SampleRetention > 0 {
		rec := sys.Recorder()
		for _, name := range rec.Names() {
			rec.Series(name).SetRetention(cfg.SampleRetention)
		}
	}
	return sys, nil
}

// Standalone assembles building i of the fleet described by cfg as a
// single System, outside any fleet. With the same cfg and i it is
// bit-identical to Fleet.Building(i) stepped the same number of ticks —
// the property the determinism tests pin.
func Standalone(cfg Config, i int) (*core.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if i < 0 || i >= cfg.Buildings {
		return nil, fmt.Errorf("fleet: building index %d out of range [0, %d)", i, cfg.Buildings)
	}
	quiet, sampled, err := sharedHandles(cfg)
	if err != nil {
		return nil, err
	}
	return newBuilding(&cfg, quiet, sampled, i)
}

// stepShard advances every building the shard owns by `ticks`. This is
// the fleet hot path: everything it reaches must stay deterministic and
// allocation-free in steady state.
//
//bzlint:hotpath
func stepShard(ctx context.Context, systems []*core.System, ticks uint64) error {
	for _, sys := range systems {
		if err := sys.Engine().RunTicks(ctx, ticks); err != nil {
			return err
		}
	}
	return nil
}

// RunTicks advances every building by n ticks, in epochs of EpochTicks.
// Within an epoch each shard steps its buildings sequentially with no
// cross-shard communication; shards only rejoin at epoch boundaries.
// Per-building results are independent of the shard count and epoch
// length.
func (f *Fleet) RunTicks(ctx context.Context, n uint64) error {
	for n > 0 {
		if err := f.drainEvents(); err != nil {
			return err
		}
		t := f.epochTicks
		if t > n {
			t = n
		}
		if err := f.pool.ForEach(ctx, len(f.shards), func(ctx context.Context, s int) error {
			return stepShard(ctx, f.shards[s], t)
		}); err != nil {
			return err
		}
		f.ticks += t
		n -= t
	}
	return nil
}

// Run advances every building by d of simulated time (truncated to whole
// ticks, matching System.Run).
func (f *Fleet) Run(ctx context.Context, d time.Duration) error {
	return f.RunTicks(ctx, uint64(d/f.step))
}

// Buildings returns the fleet size.
func (f *Fleet) Buildings() int { return len(f.buildings) }

// Shards returns the effective shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Ticks returns how many ticks every building has advanced.
func (f *Fleet) Ticks() uint64 { return f.ticks }

// Building returns building i.
func (f *Fleet) Building(i int) *core.System { return f.buildings[i] }

// BytesPerBuilding returns the measured live-heap bytes per building at
// construction (GC-settled HeapAlloc delta across instantiation,
// amortized over N).
func (f *Fleet) BytesPerBuilding() int64 { return f.bytesPerBuilding }

// Stats is a fleet-wide aggregate, accumulated in building-index order so
// the float sums are deterministic.
type Stats struct {
	Buildings int
	TicksRun  uint64
	// Room air temperature across the fleet (per-building averages).
	AvgTempC, MinTempC, MaxTempC float64
	// Average per-building dew point.
	AvgDewC float64
	// Mean whole-system COP over buildings with accumulated duty.
	AvgCOP     float64
	COPSamples int
	// Total condensation exposure across the fleet.
	CondensationS float64
}

// Stats aggregates the fleet's current state deterministically.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Buildings: len(f.buildings),
		TicksRun:  f.ticks,
		MinTempC:  math.Inf(1),
		MaxTempC:  math.Inf(-1),
	}
	var sumT, sumDew, sumCOP float64
	for _, sys := range f.buildings {
		t := sys.Room().AverageT()
		sumT += t
		sumDew += sys.Room().AverageDewPoint()
		if t < st.MinTempC {
			st.MinTempC = t
		}
		if t > st.MaxTempC {
			st.MaxTempC = t
		}
		if cop := sys.COPTotal().Value(); !math.IsNaN(cop) && !math.IsInf(cop, 0) {
			sumCOP += cop
			st.COPSamples++
		}
		st.CondensationS += sys.CondensationSeconds()
	}
	n := float64(len(f.buildings))
	st.AvgTempC = sumT / n
	st.AvgDewC = sumDew / n
	if st.COPSamples > 0 {
		st.AvgCOP = sumCOP / float64(st.COPSamples)
	}
	return st
}
