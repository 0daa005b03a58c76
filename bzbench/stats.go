package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples a reported tail percentile must have
// above it; a percentile with fewer is a handful of outliers, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// rankOf is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 is not
	// exactly 9990 in binary) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples strictly above its rank. With too few
// samples for any candidate it returns 50: the median is then the only
// honest summary.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is a sample distribution in one unit. A miss — an operation that
// failed or was refused — is stored as +Inf, so it counts as beyond any
// latency limit instead of vanishing from the distribution.
type dist struct {
	mu   sync.Mutex
	vals []float64
}

func (d *dist) add(v float64) {
	d.mu.Lock()
	d.vals = append(d.vals, v)
	d.mu.Unlock()
}

// miss records a failed or refused operation.
func (d *dist) miss() { d.add(math.Inf(1)) }

func (d *dist) merge(o *dist) {
	o.mu.Lock()
	vals := append([]float64(nil), o.vals...)
	o.mu.Unlock()
	d.mu.Lock()
	d.vals = append(d.vals, vals...)
	d.mu.Unlock()
}

func (d *dist) n() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.vals)
}

// percentile returns the nearest-rank percentile p, or NaN when empty.
// The result is +Inf when a miss lands at that rank.
func (d *dist) percentile(p float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), d.vals...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// tail returns the distribution's tail percentile (see tailPercentile)
// and its value.
func (d *dist) tail() (p, v float64) {
	p = tailPercentile(d.n())
	return p, d.percentile(p)
}

// median of xs, NaN when empty; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and failed. An operation fails when
// it errors, is refused, or returns an output the benchmark's checks
// reject.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// maxKeptErrors bounds the failure messages a tally keeps for the report.
const maxKeptErrors = 8

// record counts one attempted operation and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < maxKeptErrors {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// check records a correctness check as one attempted operation.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		return t.record(nil)
	}
	return t.record(fmt.Errorf(format, args...))
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// medianWindowRate splits [0, dur) into whole rateWindows and returns the
// median of the per-window event rates (events per second); events are
// times in seconds. With no whole window it returns the overall rate.
func medianWindowRate(events []float64, dur time.Duration) float64 {
	w := rateWindow.Seconds()
	n := int(dur.Seconds() / w)
	if n == 0 {
		return float64(len(events)) / dur.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range events {
		if k := int(t / w); k >= 0 && k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w
	}
	return median(counts)
}

// medianWindowSlope splits [0, dur) into windows of width w and returns
// the median over windows of the slope between each window's earliest and
// latest (time, value) point; windows with fewer than two points are
// skipped.
func medianWindowSlope(pts [][2]float64, dur, w time.Duration) float64 {
	n := int(dur / w)
	if n == 0 {
		n = 1
	}
	first := make([][2]float64, n)
	last := make([][2]float64, n)
	seen := make([]bool, n)
	for _, p := range pts {
		k := int(p[0] / w.Seconds())
		if k < 0 || k >= n {
			continue
		}
		if !seen[k] || p[0] < first[k][0] {
			first[k] = p
		}
		if !seen[k] || p[0] > last[k][0] {
			last[k] = p
		}
		seen[k] = true
	}
	var slopes []float64
	for k := 0; k < n; k++ {
		if dt := last[k][0] - first[k][0]; seen[k] && dt > 0 {
			slopes = append(slopes, (last[k][1]-first[k][1])/dt)
		}
	}
	return median(slopes)
}
