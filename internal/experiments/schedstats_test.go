package experiments

import (
	"context"
	"testing"
)

// TestFig10SchedulerStepStats pins the engine's one scheduling class over
// the Figure 10 trial (6300 one-second ticks): all 35 components — the 18
// sensor motes, 12 AC broadcasters, the network, and the four
// control/physics components — are stepped on every tick. The network
// had frames to resolve on at least the 2-second broadcaster ticks and
// was idle on some others; the exact count is pinned by the golden epoch
// (TestFig10MetricsWithinGoldenEpochBounds).
func TestFig10SchedulerStepStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full 105-minute trial; skipped in -short mode")
	}
	e := loadEpoch(t)
	r, err := Fig10(context.Background(), e.Seed)
	if err != nil {
		t.Fatal(err)
	}

	const ticks = 6300
	stats := r.SchedStats
	if len(stats) != 35 {
		t.Fatalf("StepStats reports %d components, want 35", len(stats))
	}
	seen := make(map[string]bool, len(stats))
	for _, cs := range stats {
		if seen[cs.Name] {
			t.Errorf("component %q registered twice", cs.Name)
		}
		seen[cs.Name] = true
		if cs.Kind != "every-tick" || cs.Steps != ticks || cs.Skipped != 0 {
			t.Errorf("%s: %s %d/%d, want every-tick %d/0",
				cs.Name, cs.Kind, cs.Steps, cs.Skipped, uint64(ticks))
		}
	}
	for _, name := range []string{"wsn.network", "radiant.module", "vent.module", "core.glue", "thermal.room"} {
		if !seen[name] {
			t.Errorf("StepStats lacks %q", name)
		}
	}
	if r.NetworkSteps < 3150 || r.NetworkSteps >= ticks {
		t.Errorf("network busy on %d of %d ticks, want in [3150, %d)",
			r.NetworkSteps, uint64(ticks), uint64(ticks))
	}
}
