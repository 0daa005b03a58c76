package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bubblezero/internal/fault"
	"bubblezero/internal/sim"
	"bubblezero/internal/trace"
)

// perturber overwrites every number and bool in a SystemState with a
// value no restore path could produce by accident: each number gets its
// own counter value (differing from the freshly built system's), and each
// bool the negation of the fresh system's. A restore path that drops a
// field re-exports the fresh system's value there instead.
type perturber struct {
	k     int64
	count int
}

var timeType = reflect.TypeOf(time.Time{})

func (p *perturber) next(fresh reflect.Value, get func(reflect.Value) int64) int64 {
	p.k++
	p.count++
	if fresh.IsValid() && get(fresh) == 1000+p.k {
		p.k++
	}
	return 1000 + p.k
}

// walk perturbs v in place; fresh is the same position in the fresh
// system's state, or the zero Value where the fresh state has no such
// element.
func (p *perturber) walk(v, fresh reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == timeType {
			return // timestamps: trace points must stay in time order
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch {
			case v.Type() == reflect.TypeOf(trace.SeriesState{}) && f.Name == "Retention":
				continue // ring retention: restore sizes the ring from it
			case v.Type() == reflect.TypeOf(sim.StreamState{}) && f.Name == "PCG":
				continue // RNG bytes: a PCG marshal format, not free numbers
			}
			var ff reflect.Value
			if fresh.IsValid() {
				ff = fresh.Field(i)
			}
			p.walk(v.Field(i), ff)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		var fe reflect.Value
		if fresh.IsValid() && !fresh.IsNil() {
			fe = fresh.Elem()
		}
		p.walk(v.Elem(), fe)
	case reflect.Slice, reflect.Array:
		// Slice lengths stay: every restore checks them against the
		// rebuilt topology.
		for i := 0; i < v.Len(); i++ {
			var fe reflect.Value
			if fresh.IsValid() && i < fresh.Len() {
				fe = fresh.Index(i)
			}
			p.walk(v.Index(i), fe)
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(p.next(fresh, func(f reflect.Value) int64 { return int64(f.Float()) })) + 0.25)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(p.next(fresh, reflect.Value.Int))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(p.next(fresh, func(f reflect.Value) int64 { return int64(f.Uint()) })))
	case reflect.Bool:
		p.count++
		v.SetBool(!(fresh.IsValid() && fresh.Bool()))
	case reflect.String:
		// Names and IDs: restore verifies them against the rebuilt
		// topology.
	default:
		panic(fmt.Sprintf("perturb: unhandled kind %s", v.Kind()))
	}
}

// firstDiff returns the path of the first scalar that differs between a
// and b, or "" when they are bit-identical.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	default:
		if a.CanInterface() && !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return path
		}
	}
	return ""
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotPerturbedRoundTrip pins snapshot completeness: every number
// and bool of a SystemState must survive restore into a freshly built
// System and come back out of ExportState bit for bit. A field some
// restore path drops shows up as the fresh system's value in the
// re-export. The fault plan arms the watchdog so its state travels too.
func TestSnapshotPerturbedRoundTrip(t *testing.T) {
	plan := fault.MustPlan(fault.SensorStuck(2*time.Minute, 3*time.Minute, "bt-temp-2"))
	src := newSystem(t, WithFaultPlan(plan))
	run(t, src, 10*time.Minute)
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	dst := newSystem(t, WithFaultPlan(plan))
	fresh, err := dst.ExportState()
	if err != nil {
		t.Fatalf("fresh ExportState: %v", err)
	}
	if st.Watch == nil {
		t.Fatal("fault plan did not arm the watchdog")
	}

	var p perturber
	p.walk(reflect.ValueOf(&st).Elem(), reflect.ValueOf(fresh))
	if p.count < 1000 {
		t.Fatalf("perturbed only %d values; the walk is not reaching the state", p.count)
	}
	in := gobBytes(t, st)

	var dec SystemState
	if err := gob.NewDecoder(bytes.NewReader(in)).Decode(&dec); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	if err := dst.RestoreState(dec); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	out, err := dst.ExportState()
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if got := gobBytes(t, out); !bytes.Equal(got, in) {
		t.Fatalf("re-export differs from the restored state (%d vs %d gob bytes); first difference at SystemState%s",
			len(got), len(in), firstDiff(reflect.ValueOf(out), reflect.ValueOf(st), ""))
	}
}

// TestRestoreRejectsBackwardTraceUntouched pins that a SystemState whose
// trace points run backwards is refused before any of the receiver's state
// is overwritten: the receiver exports exactly what it did before.
func TestRestoreRejectsBackwardTraceUntouched(t *testing.T) {
	src := newSystem(t)
	run(t, src, 10*time.Minute)
	st, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	var pts []trace.Point
	for _, ss := range st.Recorder.Series {
		if len(ss.Points) >= 2 {
			pts = ss.Points
			break
		}
	}
	if pts == nil {
		t.Fatal("no series recorded two points to reorder")
	}
	pts[0].At, pts[1].At = pts[1].At, pts[0].At

	dst := newSystem(t)
	before, err := dst.ExportState()
	if err != nil {
		t.Fatalf("fresh ExportState: %v", err)
	}
	if err := dst.RestoreState(st); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Fatalf("RestoreState of a backward trace: err = %v, want the out-of-order sample named", err)
	}
	after, err := dst.ExportState()
	if err != nil {
		t.Fatalf("ExportState after rejected restore: %v", err)
	}
	if !bytes.Equal(gobBytes(t, after), gobBytes(t, before)) {
		t.Fatalf("rejected restore changed the receiver; first difference at SystemState%s",
			firstDiff(reflect.ValueOf(after), reflect.ValueOf(before), ""))
	}
}
