package adaptive

import (
	"math"
	"slices"
)

// exactGrid is the threshold-candidate resolution of the ground-truth
// clusterer: equivalent to running Algorithm 1 with a 4096-slot histogram
// but with exact (unrounded) variance values. This is the N→∞ limit the
// paper's accuracy metric measures the histogram approximation against.
const exactGrid = 4096

// ExactClusterer stores every observed variance value and computes the
// optimal two-cluster threshold under the same objective as Algorithm 1 —
// cluster centers at the midpoints of the two subranges, cost equal to the
// summed absolute deviations of the member values — but evaluated on the
// exact values over a fine threshold grid instead of N coarse slots. It is
// the memory-unbounded ground truth for the paper's accuracy metric
// ("we can further use exact variance values to conduct clustering and
// obtain the optimal adaptation decisions").
//
// Threshold is the hottest call in the Figure 12/13 tick path, so the
// clusterer keeps a persistent sorted mirror of the value log (merged
// incrementally per call) and scratch buffers that grow amortized with the
// log, scans the candidate grid with monotone pointers instead of
// per-candidate binary searches, and remembers its last result by log
// length: O(new·log new + n + grid) per call that sees new values, O(1)
// per repeat call, with bit-identical results to the direct evaluation.
// A log that grows by one value per call allocates O(log n) times in
// total; a call that sees no new values allocates nothing.
type ExactClusterer struct {
	values []float64

	// sorted mirrors values[:len(sorted)] in ascending order; Threshold
	// merges the unsorted tail in before evaluating. tail and merged are
	// the scratch buffers for that merge; prefix holds the prefix sums.
	sorted []float64
	tail   []float64
	merged []float64
	prefix []float64

	// cachedN is the log length the cached Threshold result was computed
	// at (0: none). The log only grows between Resets, so its length
	// identifies its contents.
	cachedN      int
	cachedLambda float64
	cachedOK     bool
}

// Add records a variance value.
func (e *ExactClusterer) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	e.values = append(e.values, v)
}

// Total returns the number of stored values.
func (e *ExactClusterer) Total() int { return len(e.values) }

// Reset discards the history.
func (e *ExactClusterer) Reset() {
	e.values = e.values[:0]
	e.sorted = e.sorted[:0]
	e.cachedN = 0
}

// syncSorted brings the persistent sorted mirror up to date with the
// value log: the values appended since the last call are sorted on their
// own and merged with the already-sorted prefix. Equal values are
// interchangeable float64 bit patterns (NaN is rejected by Add, and ±0
// behave identically in every downstream comparison and sum), so the
// result is indistinguishable from sorting the whole log afresh.
func (e *ExactClusterer) syncSorted() {
	n := len(e.values)
	s := len(e.sorted)
	if s == n {
		return
	}
	// Every buffer grows through append, so a log that gains a few values
	// per call reallocates geometrically rather than on every call.
	e.tail = append(e.tail[:0], e.values[s:n]...)
	tail := e.tail
	slices.Sort(tail)
	if s == 0 {
		e.sorted = append(e.sorted[:0], tail...)
		return
	}
	out := slices.Grow(e.merged[:0], n)
	i, j := 0, 0
	for i < s && j < len(tail) {
		if e.sorted[i] <= tail[j] {
			out = append(out, e.sorted[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, e.sorted[i:]...)
	out = append(out, tail[j:]...)
	e.sorted, e.merged = out, e.sorted
}

// Threshold returns the split λ minimising the Algorithm-1 objective over
// the candidate grid. ok is false with fewer than two distinct values.
// Repeat calls with no values added in between return the cached result.
func (e *ExactClusterer) Threshold() (lambda float64, ok bool) {
	n := len(e.values)
	if n < 2 {
		return 0, false
	}
	if n != e.cachedN {
		e.cachedLambda, e.cachedOK = e.threshold(n)
		e.cachedN = n
	}
	return e.cachedLambda, e.cachedOK
}

// threshold evaluates the candidate grid over the first n ≥ 2 logged
// values.
func (e *ExactClusterer) threshold(n int) (lambda float64, ok bool) {
	e.syncSorted()
	sorted := e.sorted
	vmin, vmax := sorted[0], sorted[n-1]
	//bzlint:allow floateq degenerate-range check on stored samples; no arithmetic has touched them
	if vmin == vmax {
		return 0, false
	}

	e.prefix = slices.Grow(e.prefix[:0], n+1)[:n+1]
	prefix := e.prefix
	prefix[0] = 0
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	// The candidate b and both cluster centers increase monotonically with
	// j, so the three partition indices a binary search used to locate are
	// maintained as forward-only pointers: split is the first value ≥ b,
	// k1 the first ≥ cc1 (clamped to the lower cluster), and k2 the first
	// ≥ cc2 (always ≥ split whenever the upper cluster is non-empty).
	width := (vmax - vmin) / exactGrid
	bestCost := math.Inf(1)
	bestB := vmin + width
	split, k1, k2 := 0, 0, 0
	for j := 1; j < exactGrid; j++ {
		b := vmin + float64(j)*width
		for split < n && sorted[split] < b {
			split++
		}
		cc1 := (vmin + b) / 2
		cc2 := (b + vmax) / 2
		for k1 < n && sorted[k1] < cc1 {
			k1++
		}
		for k2 < n && sorted[k2] < cc2 {
			k2++
		}
		kLo := k1
		if kLo > split {
			kLo = split
		}
		cost := absDev(prefix, 0, split, kLo, cc1) + absDev(prefix, split, n, k2, cc2)
		if cost < bestCost {
			bestCost = cost
			bestB = b
		}
	}
	return bestB, true
}

// absDev returns Σ|v − c| over sorted[lo:hi] given prefix, the
// prefix-sum array of sorted, where k is the index of the first value in
// [lo, hi] not below c. It is a plain function rather than a closure so
// the hot Threshold path captures nothing.
func absDev(prefix []float64, lo, hi, k int, c float64) float64 {
	if lo >= hi {
		return 0
	}
	below := c*float64(k-lo) - (prefix[k] - prefix[lo])
	above := (prefix[hi] - prefix[k]) - c*float64(hi-k)
	return below + above
}
