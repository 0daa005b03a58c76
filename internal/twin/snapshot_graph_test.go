package twin

import (
	"encoding"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

var (
	gobEncoderType      = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	binaryMarshalerType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
)

// snapshotGraphFaults walks the type graph reachable from t and returns
// one line per field gob cannot carry faithfully: an unexported field
// (gob drops it silently), a func, chan or interface value (gob refuses
// or needs registration), or an embedded struct (gob does not flatten it,
// so embedding a State in another would move its fields on the wire).
// Types that serialize themselves via GobEncode or MarshalBinary are not
// descended into.
func snapshotGraphFaults(t reflect.Type) []string {
	var faults []string
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		if seen[t] {
			return
		}
		seen[t] = true
		pt := reflect.PointerTo(t)
		if pt.Implements(gobEncoderType) || pt.Implements(binaryMarshalerType) {
			return
		}
		switch t.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			faults = append(faults, path+": "+t.Kind().String()+" value")
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem(), path+"[]")
		case reflect.Map:
			walk(t.Key(), path+"[key]")
			walk(t.Elem(), path+"[elem]")
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fp := t.String() + "." + f.Name
				switch {
				case !f.IsExported():
					faults = append(faults, fp+": unexported field")
				case f.Anonymous:
					faults = append(faults, fp+": embedded field")
				default:
					walk(f.Type, fp)
				}
			}
		}
	}
	walk(t, t.String())
	return faults
}

// TestSnapshotTypeGraphIsGobSafe pins that everything a Snapshot reaches
// travels through gob: module state types hold their fields inline in
// the modules, so a field added to one lands in every snapshot, and it
// must be one gob carries.
func TestSnapshotTypeGraphIsGobSafe(t *testing.T) {
	if faults := snapshotGraphFaults(reflect.TypeOf(Snapshot{})); len(faults) > 0 {
		t.Fatalf("snapshot type graph has fields gob cannot carry:\n%s", strings.Join(faults, "\n"))
	}
}

// TestSnapshotGraphFaultsFlagsBadFields checks the walk itself on
// deliberately bad types.
func TestSnapshotGraphFaultsFlagsBadFields(t *testing.T) {
	type Inner struct{ X float64 }
	type bad struct {
		hidden int
		Fn     func()
		Ch     chan int
		Inner
		Nested []struct{ ok, Fine bool }
	}
	got := strings.Join(snapshotGraphFaults(reflect.TypeOf(bad{})), "\n")
	for _, want := range []string{"hidden: unexported", "Fn: func", "Ch: chan", "Inner: embedded", "ok: unexported"} {
		if !strings.Contains(got, want) {
			t.Errorf("faults missing %q:\n%s", want, got)
		}
	}
}
