package twin

import (
	"bytes"
	"testing"

	"bubblezero/internal/fleet"
	"bubblezero/internal/psychro"
)

// fuzzBuildings is the fleet size decodeEvent validates against.
const fuzzBuildings = 3

// FuzzEventRequest feeds arbitrary bytes through decodeEvent, the whole
// input path of POST /twins/{id}/events. It must never panic, and every
// event it accepts must be one the fleet can apply safely: climate inside
// the Magnus range with the dew point at or below the dry bulb, a door
// open for a positive time on an existing building, fault offsets that
// do not point into the past. Seeds are the request bodies of the twin
// tests and of the bzbench twin-live workload.
//
//	go test -run '^$' -fuzz '^FuzzEventRequest$' -fuzztime 30s -parallel 1 ./internal/twin
func FuzzEventRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"climate","t_c":33,"dew_c":27}`,
		`{"kind":"door","building":0,"door_s":45}`,
		`{"kind":"fault","building":1,"faults":[{"kind":"chiller-trip","at_s":200,"for_s":120,"loop":"vent"}]}`,
		`{"kind":"weather"}`,
		`{"kind":"door","building":5,"door_s":30}`,
		`{"kind":"door"}`,
		`{"kind":"fault"}`,
		`{"kind":"fault","faults":[{"kind":"melted"}]}`,
		`{"kind":"climate","t_c":1e300,"dew_c":20}`,
		`{"kind":"climate","t_c":-300,"dew_c":-300}`,
		`{"kind":"climate","t_c":20,"dew_c":40}`,
		`{"kind": "door", "building": 2, "door_s": 60}`,
		`{"kind": "climate", "t_c": 31.00, "dew_c": 27.50}`,
		`{"kind": "fault", "building": 1, "faults": [{"kind": "jam", "at_s": 12, "for_s": 30}]}`,
		`{"kind": "fault", "building": 0, "faults": [{"kind": "burst-loss", "at_s": 40, "for_s": 60, "magnitude": 0.5}]}`,
		`{"kind": "fault", "building": 2, "faults": [{"kind": "pump-degrade", "at_s": 0, "for_s": 120, "loop": "radiant", "magnitude": 0.3}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ev, err := decodeEvent(bytes.NewReader(body), fuzzBuildings)
		if err != nil {
			return
		}
		inRange := func(c float64) bool { return c >= psychro.MagnusMinC && c <= psychro.MagnusMaxC }
		switch ev.Kind {
		case fleet.EventClimate:
			if !inRange(ev.TC) || !inRange(ev.DewC) || ev.DewC > ev.TC {
				t.Fatalf("accepted climate t_c=%g dew_c=%g", ev.TC, ev.DewC)
			}
		case fleet.EventDoor:
			if ev.Building < 0 || ev.Building >= fuzzBuildings || ev.Door <= 0 {
				t.Fatalf("accepted door building=%d door=%v", ev.Building, ev.Door)
			}
		case fleet.EventFault:
			if ev.Building < 0 || ev.Building >= fuzzBuildings || len(ev.Faults) == 0 {
				t.Fatalf("accepted fault building=%d with %d faults", ev.Building, len(ev.Faults))
			}
			for i, fe := range ev.Faults {
				if fe.At < 0 || fe.For < 0 {
					t.Fatalf("accepted fault %d with At=%v For=%v", i, fe.At, fe.For)
				}
			}
		default:
			t.Fatalf("accepted unknown event kind %v", ev.Kind)
		}
	})
}
