package adaptive

import "fmt"

// Group replays one reading stream through several TrackExact schedulers
// that differ only in histogram size N — the Figure 12 study — with one
// exact-clustering ground truth shared between them. A scheduler's
// sliding-window variance does not depend on N, so every member logs the
// same variance stream: the first member feeds the shared ExactClusterer
// once per sample, and its cached Threshold is evaluated once per log
// length instead of once per member.
//
// The group steps every member itself, first member first, and never
// hands a member out: no caller can advance one member ahead of the
// others, so no member sees ground-truth values from another member's
// future. Each member's events, Accuracy and RecentAccuracy are
// bit-identical to those of a standalone TrackExact scheduler with the
// same configuration.
type Group struct {
	members []*Scheduler
	events  []Event
}

// NewGroup returns a group with one member per entry of ns, each
// configured as cfg with N set to that entry and TrackExact enabled.
func NewGroup(cfg Config, ns []int) (*Group, error) {
	if len(ns) == 0 {
		return nil, fmt.Errorf("adaptive: group needs at least one histogram size")
	}
	cfg.TrackExact = true
	g := &Group{members: make([]*Scheduler, len(ns)), events: make([]Event, len(ns))}
	for i, n := range ns {
		cfg.N = n
		s, err := NewScheduler(cfg)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			s.exact = g.members[0].exact
			s.exactShared = true
		}
		g.members[i] = s
	}
	return g, nil
}

// OnSample advances every member by one sampling period with the given
// reading and returns their events in member order. The slice is reused
// by the next call.
func (g *Group) OnSample(reading float64) []Event {
	for i, s := range g.members {
		g.events[i] = s.OnSample(reading)
	}
	return g.events
}

// Accuracy returns member i's Scheduler.Accuracy.
func (g *Group) Accuracy(i int) (frac float64, decisions int) {
	return g.members[i].Accuracy()
}

// RecentAccuracy returns member i's Scheduler.RecentAccuracy.
func (g *Group) RecentAccuracy(i int) (frac float64, window int) {
	return g.members[i].RecentAccuracy()
}
