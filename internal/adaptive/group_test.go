package adaptive

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// Reading-stream opcodes for FuzzGroupMatchesIndependent. Each opcode
// byte (taken modulo opCount) selects how the next reading(s) are made.
const (
	opNaN      = iota
	opPosInf   // +Inf
	opNegInf   // −Inf
	opNegative // a negative reading from the next byte
	opRepeat   // repeat the previous reading 1–64 times (constant runs)
	opRaw      // the next 8 bytes as a little-endian float64
	opSmall    // a temperature-like reading near 25 from the next byte
	opCount
)

// maxFuzzReadings bounds one decoded stream: with a λ period of one
// sample every step re-evaluates the exact clusterer's 4096-candidate
// grid in each independent scheduler, so the stream length sets the
// fuzzer's speed.
const maxFuzzReadings = 512

// decodeReadings turns fuzz bytes into a reading stream that mixes
// non-finite, negative, constant and arbitrary values.
func decodeReadings(b []byte) []float64 {
	var out []float64
	prev := 25.0
	for len(b) > 0 && len(out) < maxFuzzReadings {
		op := b[0] % opCount
		b = b[1:]
		next := func() byte {
			if len(b) == 0 {
				return 0
			}
			v := b[0]
			b = b[1:]
			return v
		}
		switch op {
		case opNaN:
			prev = math.NaN()
		case opPosInf:
			prev = math.Inf(1)
		case opNegInf:
			prev = math.Inf(-1)
		case opNegative:
			prev = -(float64(next()) + 1) / 8
		case opRepeat:
			for k := int(next()%64) + 1; k > 1 && len(out) < maxFuzzReadings-1; k-- {
				out = append(out, prev)
			}
		case opRaw:
			var raw [8]byte
			for i := range raw {
				raw[i] = next()
			}
			prev = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		case opSmall:
			prev = 25 + float64(int8(next()))/16
		}
		out = append(out, prev)
	}
	return out
}

// encodeReadings is decodeReadings' inverse for finite streams: every
// reading as opRaw.
func encodeReadings(vals []float64) []byte {
	out := make([]byte, 0, 9*len(vals))
	for _, v := range vals {
		out = append(out, opRaw)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// decodeGroupConfig derives the shared configuration: sampling period,
// window, and a λ period short enough for short streams to reach several
// periodic updates.
func decodeGroupConfig(sel uint16) Config {
	cfg := DefaultConfig(float64(2 + sel%3))
	cfg.Window = 2 + int(sel>>2)%8
	cfg.LambdaPeriodS = cfg.TsplS * float64(1+int(sel>>5)%128)
	return cfg
}

// decodeNs maps each byte to a histogram size in [2, 80], at most four
// sizes; duplicates are kept. An empty spec selects the paper's N.
func decodeNs(spec []byte) []int {
	if len(spec) > 4 {
		spec = spec[:4]
	}
	ns := make([]int, 0, len(spec)+1)
	for _, b := range spec {
		ns = append(ns, 2+int(b)%79)
	}
	if len(ns) == 0 {
		ns = append(ns, DefaultN)
	}
	return ns
}

// FuzzGroupMatchesIndependent is the differential check behind the
// shared ground truth: every member of a Group must behave bit for bit
// like an independent TrackExact scheduler with the same N — every
// Event, Accuracy and RecentAccuracy, after every sample.
func FuzzGroupMatchesIndependent(f *testing.F) {
	rng := rand.New(rand.NewPCG(12, 40))
	f.Add([]byte{3, 18, 38, 68}, encodeReadings(eventStream(500, 50, rng)), uint16(0x0181))
	f.Add([]byte{38, 0, 78}, encodeReadings(eventStream(500, 30, rng)), uint16(0x0fe6))
	f.Add([]byte{1, 1}, []byte{opSmall, 0, opSmall, 40, opRepeat, 63, opNaN, opSmall, 200, opPosInf,
		opNegative, 7, opRepeat, 20, opNegInf, opSmall, 100, opRepeat, 63, opSmall, 1}, uint16(7))
	f.Fuzz(func(t *testing.T, nsSpec, stream []byte, cfgSel uint16) {
		cfg := decodeGroupConfig(cfgSel)
		ns := decodeNs(nsSpec)
		readings := decodeReadings(stream)

		g, err := NewGroup(cfg, ns)
		if err != nil {
			t.Fatal(err)
		}
		solo := make([]*Scheduler, len(ns))
		for i, n := range ns {
			c := cfg
			c.N = n
			c.TrackExact = true
			if solo[i], err = NewScheduler(c); err != nil {
				t.Fatal(err)
			}
		}
		for step, r := range readings {
			evs := g.OnSample(r)
			for i, s := range solo {
				want := s.OnSample(r)
				if got := evs[i]; !sameEvent(got, want) {
					t.Fatalf("step %d, member %d (N=%d): group event %+v, independent %+v",
						step, i, ns[i], got, want)
				}
				gf, gd := g.Accuracy(i)
				wf, wd := s.Accuracy()
				if math.Float64bits(gf) != math.Float64bits(wf) || gd != wd {
					t.Fatalf("step %d, member %d (N=%d): group Accuracy %v/%d, independent %v/%d",
						step, i, ns[i], gf, gd, wf, wd)
				}
				gf, gw := g.RecentAccuracy(i)
				wf, ww := s.RecentAccuracy()
				if math.Float64bits(gf) != math.Float64bits(wf) || gw != ww {
					t.Fatalf("step %d, member %d (N=%d): group RecentAccuracy %v/%d, independent %v/%d",
						step, i, ns[i], gf, gw, wf, ww)
				}
			}
		}
	})
}

func sameEvent(a, b Event) bool {
	return a.Send == b.Send && a.Transition == b.Transition &&
		math.Float64bits(a.TsndS) == math.Float64bits(b.TsndS) &&
		math.Float64bits(a.Variance) == math.Float64bits(b.Variance)
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(DefaultConfig(3), nil); err == nil {
		t.Error("empty histogram-size list accepted")
	}
	if _, err := NewGroup(DefaultConfig(3), []int{40, 1}); err == nil {
		t.Error("N = 1 accepted")
	}
	if _, err := NewGroup(Config{}, []int{40}); err == nil {
		t.Error("invalid base config accepted")
	}
	if _, err := NewGroup(DefaultConfig(3), []int{5, 40, 40}); err != nil {
		t.Errorf("duplicate histogram sizes rejected: %v", err)
	}
}

// The members really share one clusterer, fed once per full-window
// sample — the fuzz target's equivalence would hold trivially if each
// member kept its own.
func TestGroupFeedsOneSharedClusterer(t *testing.T) {
	cfg := DefaultConfig(3)
	g, err := NewGroup(cfg, []int{5, 40, 70})
	if err != nil {
		t.Fatal(err)
	}
	readings := eventStream(2000, 200, rand.New(rand.NewPCG(1, 2)))
	for _, r := range readings {
		g.OnSample(r)
	}
	exact := g.members[0].exact
	for i, s := range g.members {
		if s.exact != exact {
			t.Fatalf("member %d has its own clusterer", i)
		}
	}
	if want := len(readings) - cfg.Window + 1; exact.Total() != want {
		t.Errorf("shared clusterer holds %d values, want %d (one per full-window sample)", exact.Total(), want)
	}
	for i := range g.members {
		if _, d := g.Accuracy(i); d == 0 {
			t.Errorf("member %d made no decisions", i)
		}
	}
}
