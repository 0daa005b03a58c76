package adaptive

import (
	"fmt"
	"slices"
)

// HistogramState is a Histogram's mutable state, held inline by the
// histogram as st. The cached slot width stays outside it: restore
// recomputes it from the same (VarMin, VarMax, n) operands, yielding the
// same float.
type HistogramState struct {
	VarMin, VarMax float64
	Counts         []uint32
	Total          int
	HasRange       bool
}

// ExportState captures the histogram contents.
func (h *Histogram) ExportState() HistogramState {
	st := h.st
	st.Counts = slices.Clone(h.st.Counts)
	return st
}

// RestoreState overwrites the histogram contents. The receiver must have
// the same slot count the state was exported with.
func (h *Histogram) RestoreState(st HistogramState) error {
	if len(st.Counts) != h.n {
		return fmt.Errorf("adaptive: histogram has %d slots, snapshot has %d", h.n, len(st.Counts))
	}
	st.Counts = append(h.st.Counts[:0], st.Counts...) // keep the owned backing
	h.st = st
	h.setRange(st.VarMin, st.VarMax)
	return nil
}

// SchedulerState is a Scheduler's mutable state. TrackExact schedulers
// (the Figure 12/13 evaluation mode, never used in assembled systems) are
// not snapshotable: the exact clusterer holds unbounded history.
//
// Unlike the other module states, the Scheduler does not hold this value
// inline: its Hist slot alone would take the per-sample Scheduler from
// 256 to about 312 bytes, so the fields are copied one by one below.
type SchedulerState struct {
	Window      []float64
	WPos        int
	WCount      int
	Sum         float64
	SumSq       float64
	Hist        HistogramState
	Lambda      float64
	LambdaOK    bool
	SinceLambda float64
	W           int
	StableRun   int
	SinceSend   float64
	EverSent    bool
}

// ExportState captures the scheduler's learning and timing state.
func (s *Scheduler) ExportState() (SchedulerState, error) {
	if s.exact != nil {
		return SchedulerState{}, fmt.Errorf("adaptive: TrackExact scheduler is not snapshotable")
	}
	window := make([]float64, len(s.window))
	copy(window, s.window)
	return SchedulerState{
		Window:      window,
		WPos:        s.wpos,
		WCount:      s.wcount,
		Sum:         s.sum,
		SumSq:       s.sumSq,
		Hist:        s.hist.ExportState(),
		Lambda:      s.lambda,
		LambdaOK:    s.lambdaOK,
		SinceLambda: s.sinceLambda,
		W:           s.w,
		StableRun:   s.stableRun,
		SinceSend:   s.sinceSend,
		EverSent:    s.everSent,
	}, nil
}

// RestoreState overwrites the scheduler's state. The receiver must have
// been built from the same configuration.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	if s.exact != nil {
		return fmt.Errorf("adaptive: TrackExact scheduler is not snapshotable")
	}
	if len(st.Window) != len(s.window) {
		return fmt.Errorf("adaptive: scheduler window is %d samples, snapshot has %d",
			len(s.window), len(st.Window))
	}
	copy(s.window, st.Window)
	s.wpos = st.WPos
	s.wcount = st.WCount
	s.sum = st.Sum
	s.sumSq = st.SumSq
	if err := s.hist.RestoreState(st.Hist); err != nil {
		return err
	}
	s.lambda = st.Lambda
	s.lambdaOK = st.LambdaOK
	s.sinceLambda = st.SinceLambda
	s.w = st.W
	s.stableRun = st.StableRun
	s.sinceSend = st.SinceSend
	s.everSent = st.EverSent
	return nil
}
