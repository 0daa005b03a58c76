package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryJobOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	p := NewPool(4)
	err := p.ForEach(context.Background(), n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("job %d ran %d times", i, got)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	p := NewPool(workers)
	err := p.ForEach(context.Background(), 50, func(context.Context, int) error {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestPoolFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started, cancelled atomic.Int32
	p := NewPool(2)
	err := p.ForEach(context.Background(), 40, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
		case <-time.After(5 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if started.Load() == 40 {
		t.Log("all jobs started before cancellation propagated (timing-dependent, not a failure)")
	}
}

func TestPoolRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	ran := false
	err := p.Run(ctx, func(context.Context) error { ran = true; return nil },
		func(context.Context) error { ran = true; return nil })
	if err == nil {
		t.Error("cancelled context should fail the batch")
	}
	if ran {
		t.Error("no job should run under a pre-cancelled context")
	}
}

func TestPoolWidthIndependence(t *testing.T) {
	// The same fan-out must produce identical per-slot results at any
	// worker count — the determinism contract the experiment sweeps rely
	// on.
	run := func(workers int) []uint64 {
		out := make([]uint64, 64)
		p := NewPool(workers)
		if err := p.ForEach(context.Background(), len(out), func(_ context.Context, i int) error {
			out[i] = DeriveSeed(42, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("slot %d differs: width-1 %d vs width-8 %d", i, serial[i], wide[i])
		}
	}
}

func TestDeriveSeedDisjoint(t *testing.T) {
	seen := make(map[uint64]uint64)
	for base := uint64(0); base < 4; base++ {
		for i := uint64(0); i < 1000; i++ {
			s := DeriveSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (base %d idx %d, prev %d)", s, base, i, prev)
			}
			seen[s] = base
			if s == base {
				t.Errorf("derived seed equals base %d at idx %d", base, i)
			}
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	var runs atomic.Int32
	c := NewCache[string, int](0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				runs.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1 (singleflight)", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	var runs int
	c := NewCache[int, int](0)
	fail := errors.New("transient")
	if _, err := c.Do(context.Background(), 1, func(context.Context) (int, error) {
		runs++
		return 0, fail
	}); !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Do(context.Background(), 1, func(context.Context) (int, error) {
		runs++
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if runs != 2 {
		t.Errorf("fn ran %d times, want 2 (errors are not memoized)", runs)
	}
}

func TestCacheEvictsOldest(t *testing.T) {
	c := NewCache[int, int](2)
	for k := 0; k < 3; k++ {
		if _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
			return k * 10, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Key 0 was evicted: recomputing it must call fn again.
	recomputed := false
	if _, err := c.Do(context.Background(), 0, func(context.Context) (int, error) {
		recomputed = true
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("oldest entry survived past the bound")
	}
	// Key 2 must still be cached.
	if _, err := c.Do(context.Background(), 2, func(context.Context) (int, error) {
		t.Error("recent entry was evicted")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache[int, int](0)
	for k := 0; k < 4; k++ {
		if _, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
	fresh := false
	if _, err := c.Do(context.Background(), 0, func(context.Context) (int, error) { fresh = true; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Error("purged entry still served from cache")
	}
}

func TestScenarioCacheKeyedBySeedAndDuration(t *testing.T) {
	c := NewCache[ScenarioKey, string](0)
	var runs atomic.Int32
	get := func(seed uint64, d time.Duration) string {
		v, err := c.Do(context.Background(), ScenarioKey{Seed: seed, Duration: d}, func(context.Context) (string, error) {
			runs.Add(1)
			return fmt.Sprintf("%d/%v", seed, d), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := get(1, time.Hour)
	b := get(1, time.Hour) // memoized
	if a != b || runs.Load() != 1 {
		t.Errorf("identical keys recomputed: %q %q (%d runs)", a, b, runs.Load())
	}
	get(1, 2*time.Hour) // different duration
	get(2, time.Hour)   // different seed
	if got := runs.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3 distinct keys", got)
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache[string, int](0)
	blocked := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Do(context.Background(), "slow", func(context.Context) (int, error) {
			close(blocked)
			<-release
			return 1, nil
		})
	}()
	<-blocked
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "slow", func(context.Context) (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
}
