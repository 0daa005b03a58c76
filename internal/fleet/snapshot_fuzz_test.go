package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
	"time"

	"bubblezero/internal/fault"
)

// Differential snapshot fuzzing: a fleet run straight through must end
// bit-identical to the same run checkpointed at an epoch boundary,
// gob-encoded, and restored into a freshly built fleet.

const (
	fuzzEpochs     = 8
	fuzzEpochTicks = 32
	fuzzMaxEvents  = 12
)

// fuzzNodes are the motes fault events may target.
var fuzzNodes = []string{
	"bt-temp-1", "bt-temp-3", "bt-hum-2", "bt-co2-4", "bt-paneldew-1", "bt-boxdew-2",
}

// scriptedEvent is one event and the epoch boundary it is applied at.
type scriptedEvent struct {
	epoch int
	ev    Event
}

// decodeScript turns fuzz bytes into at most fuzzMaxEvents climate, door
// and fault events, four bytes each, landing on boundaries [0, fuzzEpochs).
func decodeScript(b []byte, buildings int) []scriptedEvent {
	var out []scriptedEvent
	for len(b) >= 4 && len(out) < fuzzMaxEvents {
		k, e, x, y := b[0], b[1], b[2], b[3]
		b = b[4:]
		se := scriptedEvent{epoch: int(e) % fuzzEpochs}
		switch k % 3 {
		case 0:
			tc := 26 + float64(x%10)
			se.ev = Event{Kind: EventClimate, TC: tc, DewC: tc - 1 - float64(y%8)}
		case 1:
			se.ev = Event{Kind: EventDoor, Building: int(x) % buildings, Door: time.Duration(10+int(y)) * time.Second}
		default:
			at := time.Duration(k/3%8) * 20 * time.Second
			d := 30*time.Second + time.Duration(e/fuzzEpochs%8)*15*time.Second
			node := fuzzNodes[int(y/8)%len(fuzzNodes)]
			var fe fault.Event
			switch y % 8 {
			case 0:
				fe = fault.SensorStuck(at, d, node)
			case 1:
				fe = fault.SensorDrift(at, d, node, 0.01)
			case 2:
				fe = fault.MoteOffline(at, d, node)
			case 3:
				fe = fault.BurstLoss(at, d, 0.5)
			case 4:
				fe = fault.Jam(at, d)
			case 5:
				fe = fault.ChillerTrip(at, d, fault.LoopVent)
			case 6:
				fe = fault.PumpDegrade(at, d, fault.LoopRadiant, 0.4)
			default:
				fe = fault.BatteryScale(at, node, 0.5)
			}
			se.ev = Event{Kind: EventFault, Building: int(x) % buildings, Faults: []fault.Event{fe}}
		}
		out = append(out, se)
	}
	return out
}

// fuzzConfig builds a 1–2-building fleet; armed gives building 0 a
// construction fault plan so its watchdog state travels in snapshots.
func fuzzConfig(buildings int, armed bool) Config {
	cfg := DefaultConfig(buildings)
	cfg.SampleEvery = 1
	cfg.MemBudgetBytes = 0
	cfg.Shards = 1
	cfg.EpochTicks = fuzzEpochTicks
	if armed {
		cfg.FaultPlan = func(i int, _ uint64) *fault.Plan {
			if i != 0 {
				return nil
			}
			return fault.MustPlan(fault.SensorStuck(time.Minute, 2*time.Minute, "bt-temp-2"))
		}
	}
	return cfg
}

// runScript runs the script for fuzzEpochs epochs. At boundary snapAt
// (-1 for never) the fleet is exported, gob round-tripped and restored
// into a fresh fleet, before or after that boundary's events are applied.
func runScript(t *testing.T, cfg Config, script []scriptedEvent, snapAt int, snapAfterEvents bool) *Fleet {
	t.Helper()
	ctx := context.Background()
	fl, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for e := 0; e <= fuzzEpochs; e++ {
		if e == snapAt && !snapAfterEvents {
			fl = gobRoundTrip(t, fl, cfg)
		}
		for _, se := range script {
			if se.epoch == e {
				if err := fl.Apply(se.ev); err != nil {
					t.Fatalf("Apply %+v: %v", se.ev, err)
				}
			}
		}
		if e == snapAt && snapAfterEvents {
			fl = gobRoundTrip(t, fl, cfg)
		}
		if e < fuzzEpochs {
			if err := fl.RunTicks(ctx, fuzzEpochTicks); err != nil {
				t.Fatalf("RunTicks: %v", err)
			}
		}
	}
	return fl
}

// gobRoundTrip exports fl, passes the state through gob, and restores it
// into a freshly built fleet.
func gobRoundTrip(t *testing.T, fl *Fleet, cfg Config) *Fleet {
	t.Helper()
	st, err := fl.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	var dec State
	if err := gob.NewDecoder(bytes.NewReader(stateBytes(t, st))).Decode(&dec); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	res, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := res.RestoreState(dec); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	return res
}

func stateBytes(t *testing.T, st State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzSnapshotRestoreMatchesStraightRun is the differential check of the
// snapshot invariant: for any event script and any checkpoint boundary,
// the restored run ends with the straight run's Float64bits zone state,
// trace SHA, and gob-identical exported state.
func FuzzSnapshotRestoreMatchesStraightRun(f *testing.F) {
	// sel: bit 0 = 2 buildings, bit 1 = armed watchdog, bit 2 = snapshot
	// after the boundary's events; snap picks the boundary in
	// [0, fuzzEpochs].
	f.Add(uint8(0b011), uint8(3), []byte{0, 2, 7, 3, 1, 2, 1, 40, 2, 1, 0, 3})
	f.Add(uint8(0b111), uint8(4), []byte{5, 4, 1, 5, 2, 9, 0, 12, 1, 4, 0, 90, 0, 6, 3, 1})
	f.Add(uint8(0b010), uint8(0), []byte{2, 0, 0, 4, 8, 0, 0, 2, 0, 0, 5, 5})
	f.Add(uint8(0b101), uint8(8), []byte{2, 7, 1, 6, 17, 3, 0, 7, 1, 7, 1, 200})
	f.Add(uint8(0b001), uint8(5), []byte{11, 3, 1, 24, 14, 5, 0, 33, 2, 4, 1, 0})
	f.Fuzz(func(t *testing.T, sel, snap uint8, script []byte) {
		buildings := 1 + int(sel&1)
		cfg := fuzzConfig(buildings, sel&2 != 0)
		events := decodeScript(script, buildings)
		snapAt := int(snap) % (fuzzEpochs + 1)

		straight := runScript(t, cfg, events, -1, false)
		restored := runScript(t, cfg, events, snapAt, sel&4 != 0)

		for i := 0; i < buildings; i++ {
			if got, want := roomStateKey(restored.Building(i)), roomStateKey(straight.Building(i)); got != want {
				t.Errorf("building %d: zone state after a boundary-%d restore diverged from the straight run", i, snapAt)
			}
			if got, want := traceSHA(t, restored.Building(i)), traceSHA(t, straight.Building(i)); got != want {
				t.Errorf("building %d: trace %s after a boundary-%d restore, straight run %s", i, got[:12], snapAt, want[:12])
			}
		}
		a, err := straight.ExportState()
		if err != nil {
			t.Fatalf("ExportState(straight): %v", err)
		}
		b, err := restored.ExportState()
		if err != nil {
			t.Fatalf("ExportState(restored): %v", err)
		}
		if !bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
			t.Errorf("final exported state after a boundary-%d restore differs from the straight run's", snapAt)
		}
	})
}
