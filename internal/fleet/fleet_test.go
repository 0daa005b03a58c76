package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
	"bubblezero/internal/psychro"
	"bubblezero/internal/thermal"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" means valid
	}{
		{"default", func(c *Config) {}, ""},
		{"zero buildings", func(c *Config) { c.Buildings = 0 }, "Buildings must be > 0"},
		{"negative buildings", func(c *Config) { c.Buildings = -3 }, "Buildings must be > 0"},
		{"auto shards", func(c *Config) { c.Shards = 0 }, ""},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards must be >= 0"},
		{"shards at N", func(c *Config) { c.Shards = c.Buildings }, ""},
		{"shards over N", func(c *Config) { c.Shards = c.Buildings + 1 }, "exceeds Buildings"},
		{"negative budget", func(c *Config) { c.MemBudgetBytes = -1 }, "MemBudgetBytes must be >= 0"},
		{"negative sample every", func(c *Config) { c.SampleEvery = -2 }, "SampleEvery must be >= 0"},
		{"sampling without trace period", func(c *Config) {
			c.SampleEvery = 4
			c.Base.TracePeriod = 0
		}, "needs Base.TracePeriod > 0"},
		{"sampling with trace period", func(c *Config) {
			c.SampleEvery = 4
			c.Base.TracePeriod = 15 * time.Second
		}, ""},
		{"negative retention", func(c *Config) { c.SampleRetention = -1 }, "SampleRetention must be >= 0"},
		{"negative epoch", func(c *Config) { c.EpochTicks = -1 }, "EpochTicks must be >= 0"},
		{"inverted temp range", func(c *Config) {
			c.Vary.OutdoorTempLoC, c.Vary.OutdoorTempHiC = 34, 28
		}, "OutdoorTempHiC"},
		{"inverted dew range", func(c *Config) {
			c.Vary.OutdoorDewLoC, c.Vary.OutdoorDewHiC = 27, 24
		}, "OutdoorDewHiC"},
		{"negative occupants", func(c *Config) { c.Vary.MaxOccupants = -1 }, "MaxOccupants"},
		{"invalid base", func(c *Config) { c.Base.Step = 0 }, "Step must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(16)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParamsForDeterministicAndBounded(t *testing.T) {
	cfg := DefaultConfig(64)
	for i := 0; i < 64; i++ {
		p := cfg.ParamsFor(i)
		q := cfg.ParamsFor(i)
		if p != q {
			t.Fatalf("ParamsFor(%d) not deterministic: %+v vs %+v", i, p, q)
		}
		if !p.Climate {
			t.Fatalf("ParamsFor(%d): expected climate variation", i)
		}
		if p.OutdoorC < cfg.Vary.OutdoorTempLoC || p.OutdoorC >= cfg.Vary.OutdoorTempHiC {
			t.Fatalf("ParamsFor(%d): OutdoorC %v outside [%v, %v)", i, p.OutdoorC,
				cfg.Vary.OutdoorTempLoC, cfg.Vary.OutdoorTempHiC)
		}
		if p.OutdoorDewC < cfg.Vary.OutdoorDewLoC-1 || p.OutdoorDewC > p.OutdoorC-1 {
			t.Fatalf("ParamsFor(%d): OutdoorDewC %v outside plausible range (temp %v)", i, p.OutdoorDewC, p.OutdoorC)
		}
		for z, n := range p.Occupants {
			if n < 0 || n > cfg.Vary.MaxOccupants {
				t.Fatalf("ParamsFor(%d): zone %d occupants %d outside [0, %d]", i, z, n, cfg.Vary.MaxOccupants)
			}
		}
	}
	// Different indices must draw different seeds (splitmix64 collision on
	// consecutive indices would be a derivation bug, not chance).
	seen := make(map[uint64]int, 64)
	for i := 0; i < 64; i++ {
		s := cfg.ParamsFor(i).Seed
		if j, dup := seen[s]; dup {
			t.Fatalf("buildings %d and %d derived the same seed %#x", j, i, s)
		}
		seen[s] = i
	}
}

// traceSHA fingerprints a building's full recorded history with the same
// exact hex-float dump the Fig10 golden uses.
func traceSHA(t *testing.T, sys *core.System) string {
	t.Helper()
	h := sha256.New()
	if err := sys.Recorder().WriteExact(h); err != nil {
		t.Fatalf("WriteExact: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetDeterminismAcrossShardCounts pins the tentpole property: every
// building in a sharded fleet is bit-identical to the same building run
// standalone, and the shard count and epoch length change nothing.
func TestFleetDeterminismAcrossShardCounts(t *testing.T) {
	const (
		buildings = 5
		ticks     = 900 // 15 simulated minutes at the 1 s default step
	)
	base := DefaultConfig(buildings)
	base.SampleEvery = 1 // record traces on every building so SHAs are meaningful
	base.MemBudgetBytes = 0

	// Standalone reference: each building alone, one continuous run.
	want := make([]string, buildings)
	for i := 0; i < buildings; i++ {
		sys, err := Standalone(base, i)
		if err != nil {
			t.Fatalf("Standalone(%d): %v", i, err)
		}
		if err := sys.Engine().RunTicks(context.Background(), ticks); err != nil {
			t.Fatalf("standalone run %d: %v", i, err)
		}
		want[i] = traceSHA(t, sys)
	}
	for i := 1; i < buildings; i++ {
		if want[i] == want[0] {
			t.Fatalf("buildings 0 and %d produced identical traces; per-building variation is not applied", i)
		}
	}

	shardCounts := []int{1, runtime.NumCPU(), 4}
	for _, shards := range shardCounts {
		if shards > buildings {
			shards = buildings
		}
		for _, epoch := range []int{128, ticks} {
			cfg := base
			cfg.Shards = shards
			cfg.EpochTicks = epoch
			fl, err := New(context.Background(), cfg)
			if err != nil {
				t.Fatalf("New(shards=%d): %v", shards, err)
			}
			if fl.Shards() != shards {
				t.Fatalf("Shards() = %d, want %d", fl.Shards(), shards)
			}
			if err := fl.RunTicks(context.Background(), ticks); err != nil {
				t.Fatalf("RunTicks(shards=%d, epoch=%d): %v", shards, epoch, err)
			}
			if got := fl.Ticks(); got != ticks {
				t.Fatalf("Ticks() = %d, want %d", got, ticks)
			}
			for i := 0; i < buildings; i++ {
				if got := traceSHA(t, fl.Building(i)); got != want[i] {
					t.Errorf("shards=%d epoch=%d building %d: trace %s != standalone %s",
						shards, epoch, i, got[:12], want[i][:12])
				}
			}
		}
	}
}

// roomStateKey fingerprints a building's exact zone state (temperature,
// humidity ratio, CO₂ per zone) as hex float bits, so two buildings
// compare bit-for-bit without a recorder.
func roomStateKey(sys *core.System) string {
	var sb strings.Builder
	for z := 0; z < thermal.NumZones; z++ {
		st := sys.Room().Zone(thermal.ZoneID(z))
		fmt.Fprintf(&sb, "%x/%x/%x;", math.Float64bits(st.T), math.Float64bits(st.W), math.Float64bits(st.CO2PPM))
	}
	return sb.String()
}

// TestFleetBankBitIdenticalAcrossShards pins a fleet's buildings
// bit-identical — Float64bits zone state and trace SHA — to their
// Standalone references at every shard count, including a shard that
// mixes a fault-plan building with retention-sampled buildings (at
// shards=3 the middle shard owns buildings {2,3,4}: 2 and 4 sampled
// with bounded retention, 3 carrying the fault plan).
func TestFleetBankBitIdenticalAcrossShards(t *testing.T) {
	const (
		buildings = 8
		ticks     = 900
	)
	base := DefaultConfig(buildings)
	base.MemBudgetBytes = 0
	base.SampleEvery = 2
	base.SampleRetention = 64
	base.FaultPlan = func(i int, seed uint64) *fault.Plan {
		if i != 3 {
			return nil
		}
		plan, err := fault.NewPlan(
			fault.BurstLoss(2*time.Minute, 3*time.Minute, 0.5),
			fault.ChillerTrip(5*time.Minute, 5*time.Minute, fault.LoopVent),
		)
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		return plan
	}

	wantTrace := make([]string, buildings)
	wantState := make([]string, buildings)
	for i := 0; i < buildings; i++ {
		sys, err := Standalone(base, i)
		if err != nil {
			t.Fatalf("Standalone(%d): %v", i, err)
		}
		if err := sys.Engine().RunTicks(context.Background(), ticks); err != nil {
			t.Fatalf("standalone run %d: %v", i, err)
		}
		wantTrace[i] = traceSHA(t, sys)
		wantState[i] = roomStateKey(sys)
	}

	for _, shards := range []int{1, 3, 8} {
		cfg := base
		cfg.Shards = shards
		fl, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatalf("New(shards=%d): %v", shards, err)
		}
		if err := fl.RunTicks(context.Background(), ticks); err != nil {
			t.Fatalf("RunTicks(shards=%d): %v", shards, err)
		}
		for i := 0; i < buildings; i++ {
			if got := roomStateKey(fl.Building(i)); got != wantState[i] {
				t.Errorf("shards=%d building %d: fleet zone state diverged from standalone", shards, i)
			}
			if got := traceSHA(t, fl.Building(i)); got != wantTrace[i] {
				t.Errorf("shards=%d building %d: fleet trace %s != standalone %s",
					shards, i, got[:12], wantTrace[i][:12])
			}
		}
	}
}

// TestFleetTickSteadyStateAllocs pins the fleet tick allocation-free in
// steady state: once histograms have learned their variance ranges and
// the network and trace backings have grown, an entire epoch
// allocates only the worker-pool dispatch scaffolding (the per-epoch
// jobs slice and its closures — 3 objects on the single-shard fast
// path), independent of the tick count covered. With bank=false the
// fleet warms up by running; with bank=true it starts from the warmed-up
// checkpoint a zone-banked build exported at the same tick, then runs
// four epochs to regrow what restore does not carry.
func TestFleetTickSteadyStateAllocs(t *testing.T) {
	const warmTicks = 12000
	cfg := DefaultConfig(12)
	cfg.Shards = 1
	cfg.EpochTicks = 256
	ctx := context.Background()
	for _, bank := range []bool{false, true} {
		t.Run(fmt.Sprintf("bank=%v", bank), func(t *testing.T) {
			var f *Fleet
			if bank {
				f = restoreBankFixture(t, cfg, "banked_allocs_v1.gob.gz")
				if got := f.Ticks(); got != warmTicks {
					t.Fatalf("fixture restored at tick %d, want %d", got, warmTicks)
				}
				// A restored fleet regrows its backings over its first few
				// epochs (48 objects in the first at 12 buildings, the same
				// for a checkpoint from this build); four epochs settle it.
				if err := f.RunTicks(ctx, 4*256); err != nil {
					t.Fatalf("post-restore warm-up: %v", err)
				}
			} else {
				var err error
				if f, err = New(ctx, cfg); err != nil {
					t.Fatalf("New: %v", err)
				}
				// Warm up past the adaptive layer's range-learning phase
				// (the paper's var_max settles within ~1.5 simulated hours).
				if err := f.RunTicks(ctx, warmTicks); err != nil {
					t.Fatalf("warm-up: %v", err)
				}
			}
			avg := testing.AllocsPerRun(5, func() {
				if err := f.RunTicks(ctx, 256); err != nil {
					t.Fatalf("RunTicks: %v", err)
				}
			})
			if avg > 4 {
				t.Errorf("steady-state fleet epoch allocated %.1f objects, want <= 4 (dispatch scaffolding only)", avg)
			}
		})
	}
}

// TestFleetClimateEventMatchesPerBuilding pins the shared-climate fast
// path behind the event API: a queued EventClimate — applied at the next
// epoch boundary by installing one precomputed Climate in every room —
// must be bit-identical to each building recomputing its own boundary
// terms via Room.SetOutdoor. Both updates land between RunTicks calls at
// ticks 300 and 512+300, neither a multiple of the 512-tick epoch grid,
// and the fleet has two shards, so the change must reach every building
// of every shard. With bank=false both fleets reach tick 300 by running;
// with bank=true both restore the tick-300 checkpoint a zone-banked build
// exported from the same Config.
func TestFleetClimateEventMatchesPerBuilding(t *testing.T) {
	const buildings = 4
	cfg := DefaultConfig(buildings)
	cfg.SampleEvery = 1
	cfg.MemBudgetBytes = 0
	cfg.Shards = 2
	cfg.EpochTicks = 512

	for _, bank := range []bool{false, true} {
		t.Run(fmt.Sprintf("bank=%v", bank), func(t *testing.T) {
			mk := func() *Fleet {
				if bank {
					fl := restoreBankFixture(t, cfg, "banked_climate_v1.gob.gz")
					if got := fl.Ticks(); got != 300 {
						t.Fatalf("fixture restored at tick %d, want 300", got)
					}
					return fl
				}
				fl, err := New(context.Background(), cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if err := fl.RunTicks(context.Background(), 300); err != nil {
					t.Fatalf("RunTicks: %v", err)
				}
				return fl
			}
			shared, perBuilding := mk(), mk()

			update := func(tC, dewC float64) {
				if err := shared.Apply(Event{Kind: EventClimate, TC: tC, DewC: dewC}); err != nil {
					t.Fatalf("Apply climate event: %v", err)
				}
				for i := 0; i < buildings; i++ {
					perBuilding.Building(i).Room().SetOutdoor(psychro.NewStateDewPoint(tC, dewC, 0))
				}
			}
			run := func(n uint64) {
				if err := shared.RunTicks(context.Background(), n); err != nil {
					t.Fatalf("RunTicks after climate event: %v", err)
				}
				if err := perBuilding.RunTicks(context.Background(), n); err != nil {
					t.Fatalf("RunTicks after per-building SetOutdoor: %v", err)
				}
			}
			update(33.0, 27.8)
			run(512) // crosses the epoch boundary at tick 512
			update(29.5, 26.0)
			run(300)

			for i := 0; i < buildings; i++ {
				a, b := traceSHA(t, shared.Building(i)), traceSHA(t, perBuilding.Building(i))
				if a != b {
					t.Errorf("building %d: climate-event trace %s != per-building %s", i, a[:12], b[:12])
				}
				if got := shared.Building(i).Room().Outdoor().T; got != 29.5 {
					t.Errorf("building %d: outdoor T = %v after climate event, want 29.5", i, got)
				}
			}
			if j := shared.Journal(); len(j) != 2 || j[0].Tick != 300 || j[1].Tick != 812 {
				t.Errorf("journal = %+v, want two climate entries at ticks 300 and 812", j)
			}
		})
	}
}

// TestEventValidateClimateBounds pins the climate event's input check:
// both temperatures finite and inside the Magnus range, dew point at or
// below the dry bulb. Each rejected case was accepted before the check
// existed, and the first one drives every zone to NaN.
func TestEventValidateClimateBounds(t *testing.T) {
	cases := []struct {
		name     string
		tc, dewC float64
		wantErr  string // substring; "" means valid
	}{
		{"typical", 33, 27, ""},
		{"saturated", 25, 25, ""},
		{"range edges", psychro.MagnusMaxC, psychro.MagnusMinC, ""},
		{"huge dry bulb", 1e300, 20, "outside"},
		{"below absolute zero", -300, -300, "outside"},
		{"dry bulb above range", 60.5, 20, "outside"},
		{"dew point below range", 20, -45.5, "outside"},
		{"NaN dry bulb", math.NaN(), 20, "outside"},
		{"infinite dew point", 20, math.Inf(-1), "outside"},
		{"dew point above dry bulb", 20, 40, "above dry bulb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Event{Kind: EventClimate, TC: c.tc, DewC: c.dewC}.Validate(1)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("Validate: %v, want nil", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("Validate: %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestFleetMemoryBudget(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Shards = 1
	fl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := fl.BytesPerBuilding()
	if got <= 0 {
		t.Fatalf("BytesPerBuilding() = %d, want > 0", got)
	}
	if got > cfg.MemBudgetBytes {
		t.Fatalf("BytesPerBuilding() = %d exceeds the %d budget", got, cfg.MemBudgetBytes)
	}

	tight := cfg
	tight.MemBudgetBytes = 1
	if _, err := New(context.Background(), tight); err == nil {
		t.Fatal("New with a 1-byte budget succeeded, want over-budget error")
	} else if !strings.Contains(err.Error(), "over the") {
		t.Fatalf("New with 1-byte budget: %v, want over-budget error", err)
	}
}

func TestStandaloneIndexRange(t *testing.T) {
	cfg := DefaultConfig(4)
	for _, i := range []int{-1, 4} {
		if _, err := Standalone(cfg, i); err == nil {
			t.Fatalf("Standalone(%d) succeeded, want out-of-range error", i)
		}
	}
}

func TestFleetStats(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.Shards = 2
	cfg.MemBudgetBytes = 0
	fl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := fl.Stats()
	if st.Buildings != 6 {
		t.Fatalf("Stats.Buildings = %d, want 6", st.Buildings)
	}
	if st.TicksRun != uint64(10*time.Minute/cfg.Base.Step) {
		t.Fatalf("Stats.TicksRun = %d", st.TicksRun)
	}
	if math.IsNaN(st.AvgTempC) || st.AvgTempC < 10 || st.AvgTempC > 45 {
		t.Fatalf("Stats.AvgTempC = %v, outside plausible range", st.AvgTempC)
	}
	if st.MinTempC > st.AvgTempC || st.MaxTempC < st.AvgTempC {
		t.Fatalf("Stats min/avg/max inconsistent: %v / %v / %v", st.MinTempC, st.AvgTempC, st.MaxTempC)
	}
	if math.IsNaN(st.AvgDewC) {
		t.Fatal("Stats.AvgDewC is NaN")
	}
}
