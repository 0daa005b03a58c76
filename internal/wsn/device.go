package wsn

import (
	"fmt"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/energy"
	"bubblezero/internal/sim"
)

// TxMode selects how a sensor device schedules its transmissions.
type TxMode int

// Transmission modes: BT-ADPT is the paper's adaptive scheme; Fixed is the
// conservative baseline that transmits every sampling period (§V-C's
// "Fixed scheme which conservatively sets T_snd to be the same as T_spl").
const (
	ModeAdaptive TxMode = iota + 1
	ModeFixed
)

// SensorDevice is a mote wired to one sensor channel: it samples the
// plant every T_spl seconds via the read callback, runs either the
// adaptive scheduler or the fixed schedule, and broadcasts typed readings.
// Battery devices pay idle, sampling, and transmission energy.
type SensorDevice struct {
	node *Node
	net  *Network
	typ  MsgType
	zone int
	read func() float64
	mode TxMode

	sched *adaptive.Scheduler
	tsplS float64

	// onSample observes every sampling event (for Tsnd traces); onSend
	// observes transmissions.
	onSample func(value, tsndS float64, transition bool)
	onSend   func(value float64)

	st SensorDeviceState // Sched slot unused: see the type
}

var _ sim.Component = (*SensorDevice)(nil)

// SensorDeviceConfig assembles a SensorDevice.
type SensorDeviceConfig struct {
	// Node is the registered mote this device runs on.
	Node *Node
	// Network is the shared medium.
	Network *Network
	// Type is the message type the device publishes.
	Type MsgType
	// Zone is the subspace the reading concerns (-1 if not zonal).
	Zone int
	// Read returns the current true sensor reading.
	Read func() float64
	// Mode selects adaptive or fixed scheduling.
	Mode TxMode
	// TsplS is the sampling period in seconds.
	TsplS float64
	// Scheduler overrides the default adaptive scheduler configuration
	// (optional; ignored in fixed mode).
	Scheduler *adaptive.Scheduler
}

// NewSensorDevice validates and builds a device.
func NewSensorDevice(cfg SensorDeviceConfig) (*SensorDevice, error) {
	if cfg.Node == nil || cfg.Network == nil {
		return nil, fmt.Errorf("wsn: sensor device needs node and network")
	}
	if cfg.Read == nil {
		return nil, fmt.Errorf("wsn: sensor device %q needs a read function", cfg.Node.ID())
	}
	if cfg.TsplS <= 0 {
		return nil, fmt.Errorf("wsn: sensor device %q TsplS must be > 0", cfg.Node.ID())
	}
	d := &SensorDevice{
		node:  cfg.Node,
		net:   cfg.Network,
		typ:   cfg.Type,
		zone:  cfg.Zone,
		read:  cfg.Read,
		mode:  cfg.Mode,
		tsplS: cfg.TsplS,
	}
	switch cfg.Mode {
	case ModeAdaptive:
		d.sched = cfg.Scheduler
		if d.sched == nil {
			s, err := adaptive.NewScheduler(adaptive.DefaultConfig(cfg.TsplS))
			if err != nil {
				return nil, err
			}
			d.sched = s
		}
	case ModeFixed:
		// Fixed mode sends on every sample; no scheduler needed.
	default:
		return nil, fmt.Errorf("wsn: sensor device %q has invalid mode %d", cfg.Node.ID(), cfg.Mode)
	}
	return d, nil
}

// Name implements sim.Component.
func (d *SensorDevice) Name() string {
	return fmt.Sprintf("wsn.sensor.%s", d.node.ID())
}

// Node returns the underlying mote.
func (d *SensorDevice) Node() *Node { return d.node }

// Scheduler returns the adaptive scheduler (nil in fixed mode).
func (d *SensorDevice) Scheduler() *adaptive.Scheduler { return d.sched }

// TsndS returns the transmission period currently in effect.
func (d *SensorDevice) TsndS() float64 {
	if d.sched != nil {
		return d.sched.TsndS()
	}
	return d.tsplS
}

// OnSample registers a callback invoked at every sampling event with the
// reading, the T_snd in effect, and whether a transition was flagged.
func (d *SensorDevice) OnSample(fn func(value, tsndS float64, transition bool)) {
	d.onSample = fn
}

// OnSend registers a callback invoked at every transmission.
func (d *SensorDevice) OnSend(fn func(value float64)) { d.onSend = fn }

// SetStuck latches (on) or releases (off) the sensor channel. While
// stuck, every sample repeats the first reading taken after the latch —
// the classic failure of a wedged ADC or a detached probe. Releasing
// clears the latch so the next sample reads the live plant again.
func (d *SensorDevice) SetStuck(on bool) {
	d.st.Stuck = on
	if !on {
		d.st.StuckHeld = false
	}
}

// SetDrift sets the channel's calibration drift rate in sensor units per
// second of simulated time. A rate of zero clears the accumulated bias —
// fault clearance models the mote being recalibrated or swapped.
func (d *SensorDevice) SetDrift(ratePerS float64) {
	d.st.DriftPerS = ratePerS
	//bzlint:allow floateq zero is the documented clear-drift sentinel, set literally by fault clearance
	if ratePerS == 0 {
		d.st.DriftBias = 0
	}
}

// Step implements sim.Component: one tick of idle battery draw and
// sampling-accumulator bookkeeping, sampling whenever the accumulator
// crosses T_spl.
//
//bzlint:hotpath
func (d *SensorDevice) Step(env *sim.Env) {
	dt := env.Dt()
	if b := d.node.Battery(); b != nil {
		b.Drain(energy.IdlePowerW * dt)
	}
	d.st.SinceSample += dt
	for d.st.SinceSample >= d.tsplS {
		d.st.SinceSample -= d.tsplS
		d.sampleOnce()
	}
}

func (d *SensorDevice) sampleOnce() {
	b := d.node.Battery()
	if b != nil {
		if b.Depleted() {
			return
		}
		b.Drain(energy.SampleEnergyJ)
	}
	value := d.read()
	if d.st.Stuck {
		if !d.st.StuckHeld {
			d.st.StuckHeld, d.st.StuckVal = true, value
		}
		value = d.st.StuckVal
	}
	//bzlint:allow floateq zero is the no-drift sentinel, set literally by SetDrift
	if d.st.DriftPerS != 0 {
		// One sample per T_spl, so per-sample accumulation integrates the
		// rate over simulated time without touching the per-tick loop.
		d.st.DriftBias += d.st.DriftPerS * d.tsplS
		value += d.st.DriftBias
	}

	var send bool
	var tsnd float64
	var transition bool
	if d.mode == ModeAdaptive {
		ev := d.sched.OnSample(value)
		send = ev.Send
		tsnd = ev.TsndS
		transition = ev.Transition
	} else {
		send = true
		tsnd = d.tsplS
	}
	if d.onSample != nil {
		d.onSample(value, tsnd, transition)
	}
	if !send {
		return
	}
	msg := Message{Type: d.typ, Zone: d.zone, Value: value}
	if err := d.net.Broadcast(d.node, msg); err != nil {
		return // depleted battery: silently offline, like a real mote
	}
	if d.onSend != nil {
		d.onSend(value)
	}
}

// PeriodicBroadcaster is an AC-powered board publishing a processed value
// (e.g. Control-C-1's T_supp) on a fixed period.
type PeriodicBroadcaster struct {
	node    *Node
	net     *Network
	typ     MsgType
	zone    int
	read    func() float64
	periodS float64
	st      PeriodicBroadcasterState
}

var _ sim.Component = (*PeriodicBroadcaster)(nil)

// NewPeriodicBroadcaster builds a periodic publisher.
func NewPeriodicBroadcaster(node *Node, net *Network, typ MsgType, zone int,
	periodS float64, read func() float64) (*PeriodicBroadcaster, error) {
	if node == nil || net == nil || read == nil {
		return nil, fmt.Errorf("wsn: periodic broadcaster needs node, network, and read fn")
	}
	if periodS <= 0 {
		return nil, fmt.Errorf("wsn: periodic broadcaster %q period must be > 0", node.ID())
	}
	return &PeriodicBroadcaster{
		node: node, net: net, typ: typ, zone: zone, periodS: periodS, read: read,
		st: PeriodicBroadcasterState{Since: periodS}, // first broadcast on the first tick
	}, nil
}

// Name implements sim.Component.
func (p *PeriodicBroadcaster) Name() string {
	return fmt.Sprintf("wsn.periodic.%s", p.node.ID())
}

// Step implements sim.Component: period accumulation with at most one
// broadcast per tick.
//
//bzlint:hotpath
func (p *PeriodicBroadcaster) Step(env *sim.Env) {
	p.st.Since += env.Dt()
	if p.st.Since >= p.periodS {
		p.st.Since = 0
		_ = p.net.Broadcast(p.node, Message{Type: p.typ, Zone: p.zone, Value: p.read()})
	}
}
