package core

import (
	"testing"
	"time"

	"bubblezero/internal/fault"
)

// TestSharedSystemsAliasOneConfig pins the invariant fleet bytes/building
// rests on: every System built from one Shared handle reads the handle's
// single Config in place, whatever per-instance options it was given.
func TestSharedSystemsAliasOneConfig(t *testing.T) {
	sh, err := NewShared(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	optSets := [][]Option{
		nil,
		{WithSeed(7)},
		{WithOutdoor(31, 27.5)},
		{WithSeed(8), WithOutdoor(29, 24), WithFaultPlan(fault.MustPlan(fault.Jam(time.Hour, time.Minute)))},
	}
	for i, opts := range optSets {
		sys, err := sh.NewSystem(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if sys.cfg != &sh.cfg {
			t.Errorf("system %d holds a private Config copy, want the Shared handle's", i)
		}
	}
}
