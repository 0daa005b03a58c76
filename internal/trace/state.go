package trace

import "fmt"

// Snapshot support: a recorder's contents exported as plain data. Values
// round-trip bit-exactly (float64 payloads are carried as-is; encoders like
// gob preserve the bit pattern), so a restored recorder's WriteExact output
// is byte-identical to the original's — the property the twin round-trip
// tests pin.

// SeriesState is one series' captured contents in time order, plus its
// retention mode.
type SeriesState struct {
	Name      string
	Retention int // ring capacity; 0 for unbounded chunked storage
	Points    []Point
}

// RecorderState is every series in creation order.
type RecorderState struct {
	Series []SeriesState
}

// ExportState captures all series, in creation order, with their retained
// samples.
func (r *Recorder) ExportState() RecorderState {
	st := RecorderState{Series: make([]SeriesState, 0, len(r.order))}
	for _, name := range r.order {
		s := r.series[name]
		st.Series = append(st.Series, SeriesState{
			Name:      name,
			Retention: s.retain,
			Points:    s.Points(),
		})
	}
	return st
}

// Validate reports the first series whose points run backwards in time,
// the one input Append would refuse, so callers can reject a state before
// writing anything.
func (st RecorderState) Validate() error {
	for _, ss := range st.Series {
		for i := 1; i < len(ss.Points); i++ {
			if ss.Points[i].At.UnixNano() < ss.Points[i-1].At.UnixNano() {
				return fmt.Errorf("trace: series %q: sample at %v precedes sample %v",
					ss.Name, ss.Points[i].At, ss.Points[i-1].At)
			}
		}
	}
	return nil
}

// RestoreState replaces each named series' contents and retention with the
// captured ones, creating series as needed. A state that fails Validate is
// rejected before any series changes. Series the recorder already holds but
// the state does not are left untouched (a rebuilt system opens its series
// empty before restore, so in practice the state covers them all).
func (r *Recorder) RestoreState(st RecorderState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	for _, ss := range st.Series {
		s := r.Series(ss.Name)
		s.chunks, s.spare = nil, nil
		s.retain, s.ring, s.head, s.rlen = 0, nil, 0, 0
		if ss.Retention > 0 {
			s.SetRetention(ss.Retention)
		}
		for _, p := range ss.Points {
			if err := s.Append(p.At, p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
