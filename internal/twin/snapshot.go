package twin

import (
	"encoding/gob"
	"fmt"
	"io"

	"bubblezero/internal/fleet"
)

// SnapshotVersion is the wire-format version WriteSnapshot stamps and
// ReadSnapshot enforces. Bump it on any incompatible change to the
// snapshot graph (fleet.State and everything it embeds); a version
// mismatch is a hard error, never a silent partial decode.
const SnapshotVersion = 1

// Snapshot is a twin checkpoint: the config the fleet was built from —
// config expansion and fleet construction are deterministic, so the
// config IS the structural half of the snapshot — plus the fleet's full
// mutable state, event journal included.
//
// The encoding is gob: float64 payloads round-trip bit-exactly (gob
// transmits the IEEE bits, NaN included), which is what makes a restored
// twin's remaining run bit-identical to an uninterrupted one rather than
// merely close. A snapshot taken at tick T never re-pins a golden epoch:
// the restored run continues the original sample streams.
type Snapshot struct {
	Version int
	Config  Config
	State   fleet.State
}

// WriteSnapshot gob-encodes the snapshot, stamping the current version.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	s.Version = SnapshotVersion
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("twin: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes one snapshot and verifies its version.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("twin: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("twin: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	return &s, nil
}
