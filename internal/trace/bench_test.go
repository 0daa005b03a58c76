package trace

import (
	"testing"
	"time"
)

var benchT0 = time.Date(2014, 3, 10, 13, 0, 0, 0, time.UTC)

// BenchmarkSeriesAppend measures the amortized cost of growing a series
// one sample at a time — the simulator's per-tick recording primitive.
// The geometric growth of the backing array keeps allocs/op near zero.
func BenchmarkSeriesAppend(b *testing.B) {
	s := NewRecorder().Series("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesAppendPregrown measures the strictly allocation-free
// path: capacity reserved via Grow before the loop, as the core trace
// recorder does for a known horizon.
func BenchmarkSeriesAppendPregrown(b *testing.B) {
	s := NewRecorder().Series("bench")
	s.Grow(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchT0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
