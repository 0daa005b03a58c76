package wsn

import (
	"fmt"
	"sort"

	"bubblezero/internal/adaptive"
	"bubblezero/internal/energy"
)

// Snapshot state for the radio layer. The medium's RNG is an engine
// stream, captured by sim.Engine.ExportState; the pending queue is always
// empty between ticks, so only registry counters and fault toggles need
// to travel. Node slots and subscriptions are reconstructed by building
// the same topology from the same config.

// NodeState is one mote's mutable state.
type NodeState struct {
	ID      NodeID
	Seq     uint32
	Battery *energy.BatteryState // nil for AC nodes
}

// NetworkState is the Network's mutable state. In the network's own copy
// the Nodes slot stays unused — each Node holds its counters — and
// ExportState fills it.
type NetworkState struct {
	Nodes []NodeState // sorted by ID
	Stats Stats
	// LossBoost and Jammed are fault-injection state (see internal/fault),
	// layered on top of the configured medium: LossBoost adds to LossFloor
	// during burst-loss windows, and a jammed channel destroys every frame
	// outright.
	LossBoost float64
	Jammed    bool
}

// ExportState captures per-node sequence counters and batteries plus the
// medium counters and fault toggles. Nodes are emitted sorted by ID so the
// export is deterministic despite the map-backed registry.
func (n *Network) ExportState() NetworkState {
	st := n.st
	st.Nodes = make([]NodeState, 0, len(n.nodes))
	//bzlint:allow determinism export is sorted by node ID below, so iteration order is immaterial
	for _, node := range n.nodes {
		ns := NodeState{ID: node.id, Seq: node.seq}
		if node.battery != nil {
			b := node.battery.ExportState()
			ns.Battery = &b
		}
		st.Nodes = append(st.Nodes, ns)
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].ID < st.Nodes[j].ID })
	return st
}

// RestoreState overwrites node and medium state. The receiver must hold
// the same node population the state was exported from, listed once each
// in strictly ascending ID order as ExportState writes it; a mismatch is
// reported before anything is overwritten.
func (n *Network) RestoreState(st NetworkState) error {
	if len(st.Nodes) != len(n.nodes) {
		return fmt.Errorf("wsn: network has %d nodes, snapshot has %d", len(n.nodes), len(st.Nodes))
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		if i > 0 && ns.ID <= st.Nodes[i-1].ID {
			return fmt.Errorf("wsn: snapshot node %q out of order after %q", ns.ID, st.Nodes[i-1].ID)
		}
		node, ok := n.nodes[ns.ID]
		if !ok {
			return fmt.Errorf("wsn: snapshot node %q not in network", ns.ID)
		}
		if (node.battery != nil) != (ns.Battery != nil) {
			return fmt.Errorf("wsn: node %q power class differs from snapshot", ns.ID)
		}
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		node := n.nodes[ns.ID]
		node.seq = ns.Seq
		if node.battery != nil {
			node.battery.RestoreState(*ns.Battery)
		}
	}
	st.Nodes = nil // the nodes hold their state; retain none of the caller's
	n.st = st
	return nil
}

// SensorDeviceState is a SensorDevice's mutable state. In the device's own
// copy the Sched slot stays unused — the scheduler holds its state — and
// ExportState fills it.
type SensorDeviceState struct {
	SinceSample float64
	// Fault-injection state (see internal/fault). A stuck channel latches
	// the first reading taken after the fault lands; a drifting channel
	// accumulates DriftPerS units of bias per second of simulated time,
	// advanced per sample so the fault-free sampling path is untouched.
	Stuck     bool
	StuckHeld bool
	StuckVal  float64
	DriftPerS float64
	DriftBias float64
	Sched     *adaptive.SchedulerState // nil in fixed mode
}

// ExportState captures the sampling accumulator, fault-channel state, and
// the adaptive scheduler (when present).
func (d *SensorDevice) ExportState() (SensorDeviceState, error) {
	st := d.st
	if d.sched != nil {
		ss, err := d.sched.ExportState()
		if err != nil {
			return SensorDeviceState{}, fmt.Errorf("wsn: device %q: %w", d.node.ID(), err)
		}
		st.Sched = &ss
	}
	return st, nil
}

// RestoreState overwrites the device's mutable state.
func (d *SensorDevice) RestoreState(st SensorDeviceState) error {
	if (d.sched != nil) != (st.Sched != nil) {
		return fmt.Errorf("wsn: device %q scheduling mode differs from snapshot", d.node.ID())
	}
	if d.sched != nil {
		if err := d.sched.RestoreState(*st.Sched); err != nil {
			return fmt.Errorf("wsn: device %q: %w", d.node.ID(), err)
		}
	}
	st.Sched = nil // the scheduler holds its state; retain none of the caller's
	d.st = st
	return nil
}

// PeriodicBroadcasterState is a PeriodicBroadcaster's mutable state.
type PeriodicBroadcasterState struct {
	Since float64
}

// ExportState captures the period accumulator.
func (p *PeriodicBroadcaster) ExportState() PeriodicBroadcasterState { return p.st }

// RestoreState overwrites the period accumulator.
func (p *PeriodicBroadcaster) RestoreState(st PeriodicBroadcasterState) { p.st = st }
