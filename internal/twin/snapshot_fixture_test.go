package twin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// snapshotFixture describes testdata/snapshot_v1.gob: a version-1
// snapshot of Config{Buildings: 2, Shards: 1, Seed: 11, EpochTicks: 64,
// SampleRetention: 16} taken at tick 192, after a climate event
// (TC 33, DewC 27) was journaled at the tick-128 boundary. Digest is the
// SHA-256 of the buildings' fingerprints, one per line, after the writer
// ran TicksAfterRestore more ticks past the snapshot.
type snapshotFixture struct {
	SnapshotTick      uint64 `json:"snapshot_tick"`
	TicksAfterRestore uint64 `json:"ticks_after_restore"`
	Digest            string `json:"digest"`
}

// TestSnapshotFixtureRestoresBitIdentical pins the wire format against a
// committed snapshot written by an earlier build of the twin, one whose
// engine state still carried fields this build no longer declares (gob
// skips them on decode). Restoring it and running on must reproduce the
// writer's own continuation bit for bit.
func TestSnapshotFixtureRestoresBitIdentical(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx snapshotFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatalf("decode fixture metadata: %v", err)
	}
	gobBytes, err := os.ReadFile("testdata/snapshot_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(gobBytes))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(snap.State.Journal) != 1 {
		t.Fatalf("fixture journal has %d events, want 1", len(snap.State.Journal))
	}
	tw, err := RestoreTwin(context.Background(), snap)
	if err != nil {
		t.Fatalf("RestoreTwin: %v", err)
	}
	defer tw.Close()
	if got := tw.Status().Ticks; got != fx.SnapshotTick {
		t.Fatalf("restored twin at tick %d, want %d", got, fx.SnapshotTick)
	}
	if err := tw.RunTicks(fx.TicksAfterRestore); err != nil {
		t.Fatalf("RunTicks: %v", err)
	}
	waitIdle(t, tw, fx.SnapshotTick+fx.TicksAfterRestore)
	h := sha256.New()
	for _, fp := range fingerprints(t, tw) {
		h.Write([]byte(fp + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fx.Digest {
		t.Fatalf("restored run digest %s, want %s", got, fx.Digest)
	}
}
