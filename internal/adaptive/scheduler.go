package adaptive

import (
	"fmt"
	"math"
)

// Default parameters from the paper (§IV-B and §V-C).
const (
	// DefaultN is the histogram size chosen in Figure 12 ("we select
	// N = 40 as the default setting").
	DefaultN = 40
	// DefaultWMax is the maximum transmission-period multiplier ("We set
	// the maximum w to be 32").
	DefaultWMax = 32
	// DefaultStableRuns is the number of successive stable sampling
	// periods before T_snd doubles ("T_snd is doubled if the variance does
	// not exceed the threshold after 10 successive T_spls").
	DefaultStableRuns = 10
	// DefaultWindow is the sliding-window length (in samples) for the
	// variance computation.
	DefaultWindow = 8
	// DefaultLambdaPeriodS is the λ recomputation period ("the updating of
	// λ is periodical, which is empirically set to be 20 minutes").
	DefaultLambdaPeriodS = 20 * 60
)

// Sampling periods per data type (§IV-B: "the sampling period T_spl for
// temperature, humidity, CO2 concentration sensors in BubbleZERO is set to
// be 3s, 2s, and 4s, respectively").
const (
	TsplTemperatureS = 3
	TsplHumidityS    = 2
	TsplCO2S         = 4
)

// Config parameterises a Scheduler.
type Config struct {
	// TsplS is the sampling period in seconds.
	TsplS float64
	// Window is the sliding-window length in samples.
	Window int
	// N is the histogram slot count.
	N int
	// WMax is the maximum period multiplier.
	WMax int
	// StableRuns is the number of consecutive stable samples required to
	// double w.
	StableRuns int
	// LambdaPeriodS is the seconds between λ recomputations.
	LambdaPeriodS float64
	// TrackExact additionally maintains the exact clusterer as ground
	// truth and records decision accuracy (costs unbounded memory; used
	// for the Figure 12/13 evaluation, not on real motes).
	TrackExact bool
}

// DefaultConfig returns the paper's configuration for the given sampling
// period.
func DefaultConfig(tsplS float64) Config {
	return Config{
		TsplS:         tsplS,
		Window:        DefaultWindow,
		N:             DefaultN,
		WMax:          DefaultWMax,
		StableRuns:    DefaultStableRuns,
		LambdaPeriodS: DefaultLambdaPeriodS,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.TsplS <= 0:
		return fmt.Errorf("adaptive: TsplS must be > 0, got %v", c.TsplS)
	case c.Window < 2:
		return fmt.Errorf("adaptive: Window must be >= 2, got %d", c.Window)
	case c.N < 2:
		return fmt.Errorf("adaptive: N must be >= 2, got %d", c.N)
	case c.WMax < 1:
		return fmt.Errorf("adaptive: WMax must be >= 1, got %d", c.WMax)
	case c.StableRuns < 1:
		return fmt.Errorf("adaptive: StableRuns must be >= 1, got %d", c.StableRuns)
	case c.LambdaPeriodS <= 0:
		return fmt.Errorf("adaptive: LambdaPeriodS must be > 0, got %v", c.LambdaPeriodS)
	}
	return nil
}

// Event is the outcome of one sampling step.
type Event struct {
	// Send reports whether the device transmits this sample.
	Send bool
	// Transition reports whether the variance classified as a transition
	// (variance > λ) at this step.
	Transition bool
	// TsndS is the transmission period in effect after this step.
	TsndS float64
	// Variance is the sliding-window variance, NaN until the window fills.
	Variance float64
}

// Scheduler implements the bt-device transmission logic. Drive it by
// calling OnSample once per sampling period with the latest sensor
// reading.
type Scheduler struct {
	cfg Config

	window []float64
	wpos   int
	wcount int
	sum    float64
	sumSq  float64

	hist  *Histogram
	exact *ExactClusterer

	lambda      float64
	lambdaOK    bool
	sinceLambda float64

	// Ground-truth threshold, recomputed on the same cadence as λ.
	exactLambda float64
	exactOK     bool
	// exactShared marks a Group member whose exact clusterer is fed by
	// the group's first member: it reads the shared ground truth but
	// never adds to it.
	exactShared bool

	w         int
	stableRun int
	sinceSend float64
	everSent  bool

	// Accuracy bookkeeping (TrackExact only).
	decisions        int
	matchedDecisions int
	recent           []bool // ring of recent decision matches
	recentPos        int
	recentFull       bool
}

// recentWindow is the size of the rolling decision-accuracy window used by
// RecentAccuracy (the Figure 13 "accuracy as time elapses" curve).
const recentWindow = 256

// NewScheduler returns a scheduler for the given configuration.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hist, err := NewHistogram(cfg.N)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:    cfg,
		window: make([]float64, cfg.Window),
		hist:   hist,
		w:      1,
	}
	if cfg.TrackExact {
		s.exact = &ExactClusterer{}
	}
	return s, nil
}

// Config returns the scheduler configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// TsndS returns the current transmission period in seconds.
func (s *Scheduler) TsndS() float64 { return float64(s.w) * s.cfg.TsplS }

// W returns the current period multiplier.
func (s *Scheduler) W() int { return s.w }

// Lambda returns the current threshold and whether one has been learned.
func (s *Scheduler) Lambda() (float64, bool) { return s.lambda, s.lambdaOK }

// Histogram exposes the underlying histogram (for RAM accounting and the
// periodic reset policy).
func (s *Scheduler) Histogram() *Histogram { return s.hist }

// Accuracy returns the fraction of stable/transition decisions that
// matched the exact-clustering ground truth, and the number of decisions
// made. Requires TrackExact; returns 0, 0 otherwise.
func (s *Scheduler) Accuracy() (frac float64, decisions int) {
	if s.decisions == 0 {
		return 0, 0
	}
	return float64(s.matchedDecisions) / float64(s.decisions), s.decisions
}

// RecentAccuracy returns the decision accuracy over the most recent
// window of decisions (up to 256), and the window size. Requires
// TrackExact.
func (s *Scheduler) RecentAccuracy() (frac float64, window int) {
	if s.recent == nil {
		return 0, 0
	}
	n := recentWindow
	if !s.recentFull {
		n = s.recentPos
	}
	if n == 0 {
		return 0, 0
	}
	matched := 0
	for i := 0; i < n; i++ {
		if s.recent[i] {
			matched++
		}
	}
	return float64(matched) / float64(n), n
}

// variance returns the sliding-window variance var(X) = E[X²] − (E[X])²,
// clamped at zero against floating-point cancellation.
func (s *Scheduler) variance() float64 {
	n := float64(s.wcount)
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// OnSample advances the scheduler by one sampling period with the given
// reading and returns the resulting event.
func (s *Scheduler) OnSample(reading float64) Event {
	// Slide the window.
	if s.wcount == s.cfg.Window {
		old := s.window[s.wpos]
		s.sum -= old
		s.sumSq -= old * old
	} else {
		s.wcount++
	}
	s.window[s.wpos] = reading
	s.sum += reading
	s.sumSq += reading * reading
	// Wrap with a compare instead of % — the divide is measurable on the
	// per-sample path and the increment is always < Window.
	if s.wpos++; s.wpos == s.cfg.Window {
		s.wpos = 0
	}

	s.sinceSend += s.cfg.TsplS
	s.sinceLambda += s.cfg.TsplS

	ev := Event{Variance: math.NaN(), TsndS: s.TsndS()}
	if s.wcount < s.cfg.Window {
		// Window not yet full: behave as stable with the initial period.
		if !s.everSent || s.sinceSend >= s.TsndS() {
			ev.Send = true
			s.sinceSend = 0
			s.everSent = true
		}
		return ev
	}

	v := s.variance()
	ev.Variance = v
	loBefore, hiBefore, okBefore := s.hist.Range()
	s.hist.Add(v)
	if s.exact != nil {
		if !s.exactShared {
			s.exact.Add(v)
		}
		// A histogram rescale is where the approximation error enters
		// (old counts are re-rounded onto the new grid) while the device's
		// own λ stays stale until its periodic update. Refreshing the
		// ground truth at these instants is what produces the paper's
		// lower accuracy "before sufficient external events are
		// encountered" (Figure 13).
		//bzlint:allow floateq rescale detection compares stored bounds, copied not recomputed
		if lo, hi, ok := s.hist.Range(); ok != okBefore || lo != loBefore || hi != hiBefore {
			if l, ok := s.exact.Threshold(); ok {
				s.exactLambda = l
				s.exactOK = true
			}
		}
	}

	// Periodic λ update (also bootstraps the first λ). The ground-truth
	// threshold refreshes on the same cadence so the accuracy comparison
	// is like-for-like.
	if !s.lambdaOK || s.sinceLambda >= s.cfg.LambdaPeriodS {
		if l, ok := s.hist.Threshold(); ok {
			s.lambda = l
			s.lambdaOK = true
			s.sinceLambda = 0
		}
		if s.exact != nil {
			if l, ok := s.exact.Threshold(); ok {
				s.exactLambda = l
				s.exactOK = true
			}
		}
	}

	transition := s.lambdaOK && v > s.lambda
	ev.Transition = transition

	if s.exact != nil && s.lambdaOK {
		s.decisions++
		exactTransition := s.exactOK && v > s.exactLambda
		matched := exactTransition == transition
		if matched {
			s.matchedDecisions++
		}
		if s.recent == nil {
			s.recent = make([]bool, recentWindow)
		}
		s.recent[s.recentPos] = matched
		if s.recentPos++; s.recentPos == recentWindow {
			s.recentPos = 0
		}
		if s.recentPos == 0 {
			s.recentFull = true
		}
	}

	if transition {
		// "The device adjusts T_snd the same as T_spl and immediately
		// resets the timer using the updated T_snd" — an expired timer
		// sends at once.
		s.w = 1
		s.stableRun = 0
		ev.Send = true
		s.sinceSend = 0
		s.everSent = true
		ev.TsndS = s.TsndS()
		return ev
	}

	s.stableRun++
	if s.stableRun >= s.cfg.StableRuns && s.w < s.cfg.WMax {
		s.w *= 2
		if s.w > s.cfg.WMax {
			s.w = s.cfg.WMax
		}
		s.stableRun = 0
	}
	ev.TsndS = s.TsndS()

	if !s.everSent || s.sinceSend >= s.TsndS() {
		ev.Send = true
		s.sinceSend = 0
		s.everSent = true
	}
	return ev
}
