package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"bubblezero/internal/fault"
)

// faultedRunDigest pins TestFaultedRunDigest. It covers the trace, every
// mote's remaining charge and the medium counters of a default system run
// through the plan in faultedRunPlan, in the Run segments of
// faultedRunSegments. Each battery's joules fix how many samples and
// transmissions its mote made, so a change in when a device steps, or in
// how a suspended device is skipped, moves the digest.
const faultedRunDigest = "41a9f3450581bb77a4b4ba6c98e1db2e0d55d010990f33de62d25fa934c96404"

// faultedRunPlan takes two motes offline across several Run boundaries
// (one never comes back), empties a third mote's battery and latches a
// fourth mote's sensor. Offsets sit off the sampling and broadcast grid so
// faults land between a device's active ticks.
func faultedRunPlan() *fault.Plan {
	return fault.MustPlan(
		fault.MoteOffline(9*time.Minute+7*time.Second, 23*time.Minute+11*time.Second, "bt-temp-2"),
		fault.MoteOffline(17*time.Minute+3*time.Second, 0, "bt-hum-3"),
		fault.BatteryDeplete(21*time.Minute+5*time.Second, "bt-paneldew-1"),
		fault.SensorStuck(12*time.Minute+1*time.Second, 19*time.Minute+13*time.Second, "bt-temp-4"),
	)
}

// faultedRunSegments are the Run calls, deliberately not multiples of any
// sampling period.
var faultedRunSegments = []time.Duration{
	7*time.Minute + 3*time.Second,
	5*time.Minute + 31*time.Second,
	11*time.Minute + 17*time.Second,
	13 * time.Minute,
	23*time.Minute + 9*time.Second,
}

func TestFaultedRunDigest(t *testing.T) {
	s := newSystem(t, WithFaultPlan(faultedRunPlan()))
	for _, d := range faultedRunSegments {
		run(t, s, d)
	}
	h := sha256.New()
	if err := s.Recorder().WriteExact(h); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	for _, dev := range s.Devices() {
		if b := dev.Node().Battery(); b != nil {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b.RemainingJ()))
			fmt.Fprintf(h, "%s ", dev.Node().ID())
			h.Write(buf[:])
		}
	}
	st := s.Network().Stats()
	fmt.Fprintf(h, "sent=%d delivered=%d collided=%d lost=%d jammed=%d delay=%x",
		st.Sent, st.Delivered, st.Collided, st.LostRandom, st.Jammed, math.Float64bits(st.TotalDelayS))
	if got := hex.EncodeToString(h.Sum(nil)); got != faultedRunDigest {
		t.Errorf("faulted-run digest = %s, want %s", got, faultedRunDigest)
	}
}
