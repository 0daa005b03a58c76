package wsn

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"bubblezero/internal/energy"
	"bubblezero/internal/sim"
)

// Config parameterises the radio medium.
type Config struct {
	// AirtimeS is the channel occupancy per frame: a maximum-length
	// 802.15.4 frame (133 bytes incl. PHY overhead) at 250 kbps is
	// ≈4.3 ms.
	AirtimeS float64
	// CCABlindS is the carrier-sense blind window: two senders starting
	// within it cannot hear each other and collide.
	CCABlindS float64
	// LossFloor is the independent per-packet loss probability from
	// non-collision causes (fading, interference).
	LossFloor float64
	// Desync staggers AC-device transmission offsets into deterministic
	// slots instead of random offsets — the paper's adaptive schedule for
	// ac-devices. Toggleable for the ablation benchmark.
	Desync bool
}

// DefaultConfig returns the BubbleZERO radio parameterisation.
func DefaultConfig() Config {
	return Config{
		AirtimeS:  0.0043,
		CCABlindS: 0.0005,
		LossFloor: 0.005,
		Desync:    true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.AirtimeS <= 0:
		return fmt.Errorf("wsn: AirtimeS must be > 0, got %v", c.AirtimeS)
	case c.CCABlindS < 0 || c.CCABlindS > c.AirtimeS:
		return fmt.Errorf("wsn: CCABlindS must be in [0, AirtimeS], got %v", c.CCABlindS)
	case c.LossFloor < 0 || c.LossFloor >= 1:
		return fmt.Errorf("wsn: LossFloor must be in [0, 1), got %v", c.LossFloor)
	}
	return nil
}

// Node is one mote on the network.
type Node struct {
	id      NodeID
	class   PowerClass
	battery *energy.Battery // nil for AC nodes
	seq     uint32
	acSlot  int      // desync slot index for AC nodes
	net     *Network // the registry that created this node (via AddNode)
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// Battery returns the node battery (nil for AC nodes).
func (n *Node) Battery() *energy.Battery { return n.battery }

// Stats aggregates medium-level counters.
type Stats struct {
	Sent        int
	Delivered   int
	Collided    int
	LostRandom  int
	Jammed      int
	TotalDelayS float64
}

// DeliveryRate returns the fraction of sent packets delivered.
func (s Stats) DeliveryRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Sent)
}

// AvgDelayS returns the mean channel-access delay of delivered packets.
func (s Stats) AvgDelayS() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.TotalDelayS / float64(s.Delivered)
}

// scratchStarts returns the reusable start-time buffer sized to k. Values
// are fully overwritten by the deferral pass, so no clearing is needed.
func (n *Network) scratchStarts(k int) []float64 {
	if cap(n.starts) < k {
		n.starts = make([]float64, k)
	}
	n.starts = n.starts[:k]
	return n.starts
}

// scratchOrder returns the reusable index buffer sized to k, initialised
// to the identity permutation.
func (n *Network) scratchOrder(k int) []int32 {
	if cap(n.order) < k {
		n.order = make([]int32, k)
	}
	n.order = n.order[:k]
	for i := range n.order {
		n.order[i] = int32(i)
	}
	return n.order
}

// scratchCollided returns the reusable collision-flag buffer sized to k,
// cleared to false (the collision pass only ever sets flags).
func (n *Network) scratchCollided(k int) []bool {
	if cap(n.collided) < k {
		n.collided = make([]bool, k)
	}
	n.collided = n.collided[:k]
	clear(n.collided)
	return n.collided
}

type pendingTx struct {
	msg    Message
	node   *Node
	offset float64 // intended start offset within the tick
}

// subscription is one consumer's type filter. Message types are small
// consecutive constants, so the filter is a bitmask checked with one AND
// per delivery instead of a map lookup; types outside the mask range (not
// used by any in-repo producer) spill into a map so Subscribe accepts any
// MsgType value.
type subscription struct {
	mask uint64           // dense filter for types 0..63
	wide map[MsgType]bool // spillover for types outside the mask, usually nil
	fn   func(Message)
}

// matches reports whether the subscription wants messages of type t.
func (s *subscription) matches(t MsgType) bool {
	if uint64(t) < 64 {
		return s.mask&(1<<uint64(t)) != 0
	}
	return s.wide != nil && s.wide[t]
}

// Network is the shared broadcast medium plus the node registry. It
// implements sim.Component; devices enqueue broadcasts during their own
// Step (scheduled before the network), and the network resolves contention
// and invokes subscriber callbacks during its Step.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	nodes   map[NodeID]*Node
	acCount int
	pending []pendingTx
	subs    []subscription

	// starts, collided, and order are Step's scratch buffers, owned by the
	// network and regrown only when the pending set outgrows them, so the
	// per-tick contention resolution performs no allocations.
	starts   []float64
	collided []bool
	order    []int32

	// sniffer callbacks observe every delivered message (the paper's
	// TelosB sniffer nodes that log all network packets).
	sniffers []func(Message)

	// busyTicks counts the Step calls that found frames to resolve.
	busyTicks uint64

	st NetworkState // Nodes slot unused: see the type
}

var _ sim.Component = (*Network)(nil)

// NewNetwork builds a network over the given deterministic RNG.
func NewNetwork(cfg Config, rng *rand.Rand) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("wsn: rng must not be nil")
	}
	return &Network{
		cfg:   cfg,
		rng:   rng,
		nodes: make(map[NodeID]*Node),
		// The pending queue is bounded by the transmitters that share a
		// tick — a handful for the paper's building. Pre-sizing it keeps
		// the append-doubling warm-up (nil→1→2→4→8) out of the stepping
		// path, which the fleet pins allocation-free in steady state.
		pending: make([]pendingTx, 0, 16),
	}, nil
}

// Name implements sim.Component.
func (n *Network) Name() string { return "wsn.network" }

// Config returns the medium configuration.
func (n *Network) Config() Config { return n.cfg }

// AddNode registers a mote. Battery nodes get a fresh two-AA battery.
func (n *Network) AddNode(id NodeID, class PowerClass) (*Node, error) {
	if _, exists := n.nodes[id]; exists {
		return nil, fmt.Errorf("wsn: duplicate node %q", id)
	}
	node := &Node{id: id, class: class, net: n}
	if class == PowerBattery {
		node.battery = energy.NewTwoAA()
	} else {
		node.acSlot = n.acCount
		n.acCount++
	}
	n.nodes[id] = node
	return node, nil
}

// NodeCount returns the number of registered nodes.
func (n *Network) NodeCount() int { return len(n.nodes) }

// Subscribe registers a consumer callback for the given message types.
// This is the paper's consumer-side filtering: "All potential consumers
// fetch data messages from the wireless channel and filter out messages
// with undesired types."
func (n *Network) Subscribe(fn func(Message), types ...MsgType) {
	sub := subscription{fn: fn}
	for _, t := range types {
		if uint64(t) < 64 {
			sub.mask |= 1 << uint64(t)
		} else {
			if sub.wide == nil {
				sub.wide = make(map[MsgType]bool)
			}
			sub.wide[t] = true
		}
	}
	n.subs = append(n.subs, sub)
}

// SetLossBoost adds p to the configured LossFloor for subsequent ticks
// (total clamped to [0, 1] at draw time). Fault plans use it for burst
// packet-loss windows; zero restores the configured floor bit-exactly.
func (n *Network) SetLossBoost(p float64) {
	if p < 0 {
		p = 0
	}
	n.st.LossBoost = p
}

// SetJammed switches the channel jam on or off. While jammed, every
// frame offered in a tick is destroyed before contention resolution —
// transmitters still pay their transmission energy, but nothing is
// delivered and no RNG draws are consumed.
func (n *Network) SetJammed(on bool) { n.st.Jammed = on }

// AddSniffer registers a callback observing every delivered message.
func (n *Network) AddSniffer(fn func(Message)) {
	n.sniffers = append(n.sniffers, fn)
}

// Broadcast rejection reasons. These are fixed sentinel errors rather
// than formatted ones: Broadcast sits on the per-tick transmit path, and
// fmt.Errorf would allocate on every rejected packet (a depleted node
// keeps trying to transmit for the rest of the run).
var (
	// ErrNilNode reports a Broadcast from a nil node.
	ErrNilNode = errors.New("wsn: broadcast from nil node")
	// ErrUnregisteredNode reports a Broadcast from a node that does not
	// belong to this network.
	ErrUnregisteredNode = errors.New("wsn: broadcast from unregistered node")
	// ErrBatteryDepleted reports a Broadcast from a node whose battery
	// cannot pay the per-packet transmission energy.
	ErrBatteryDepleted = errors.New("wsn: broadcast from node with depleted battery")
)

// Broadcast enqueues a message from the node for transmission during the
// current tick. The per-packet transmission energy is drained from
// battery nodes immediately; a depleted battery cannot transmit.
func (n *Network) Broadcast(node *Node, msg Message) error {
	if node == nil {
		return ErrNilNode
	}
	// Nodes are only created by AddNode, so the back-pointer check is
	// equivalent to the former map lookup without the per-packet string
	// hashing.
	if node.net != n {
		return ErrUnregisteredNode
	}
	if node.battery != nil {
		if node.battery.Depleted() {
			return ErrBatteryDepleted
		}
		node.battery.Drain(energy.TxEnergyPerPacketJ)
	}
	node.seq++
	msg.Source = node.id
	msg.Seq = node.seq
	n.pending = append(n.pending, pendingTx{msg: msg, node: node})
	return nil
}

// Stats returns the cumulative medium statistics.
func (n *Network) Stats() Stats { return n.st.Stats }

// BusyTicks returns how many ticks since construction the network had
// frames to resolve; on every other tick Step returns at once. Transmit
// timing is value-dependent (adaptive T_snd), so the count is a compact
// check on the whole schedule. It is not snapshot state: a restored
// network counts from its restore.
func (n *Network) BusyTicks() uint64 { return n.busyTicks }

// Step implements sim.Component: assigns channel-access offsets, resolves
// CSMA deferral and CCA-blind collisions, and delivers surviving packets
// to subscribers and sniffers.
//
//bzlint:hotpath
func (n *Network) Step(env *sim.Env) {
	if len(n.pending) == 0 {
		return
	}
	n.busyTicks++
	if n.st.Jammed {
		n.st.Stats.Sent += len(n.pending)
		n.st.Stats.Jammed += len(n.pending)
		n.pending = n.pending[:0]
		return
	}
	tick := env.Dt()
	// Config fields and the RNG handle are hoisted to locals: every
	// rng/callback call below would otherwise force their reload from the
	// receiver, and the three passes touch them once or twice per packet.
	rng := n.rng
	airtime, blind, loss := n.cfg.AirtimeS, n.cfg.CCABlindS, n.cfg.LossFloor
	if n.st.LossBoost > 0 {
		if loss += n.st.LossBoost; loss > 1 {
			loss = 1
		}
	}

	// Offset assignment: AC nodes use staggered deterministic slots when
	// desync is on; everything else picks a uniform random offset (the
	// CSMA backoff draw). The slot width depends only on the tick length
	// and the AC population, so it is computed once per Step.
	desync := n.cfg.Desync && n.acCount > 0
	var slotWidth float64
	if desync {
		slotWidth = tick / float64(n.acCount)
	}
	for i := range n.pending {
		tx := &n.pending[i]
		if desync && tx.node.class == PowerAC {
			jitter := rng.Float64() * airtime * 0.1
			tx.offset = float64(tx.node.acSlot)*slotWidth + jitter
		} else {
			tx.offset = rng.Float64() * tick
		}
	}
	// Offsets are continuous RNG draws, so ties have probability zero and
	// any comparison sort yields the same total order. The sort permutes a
	// small index scratch rather than the pending entries themselves —
	// pendingTx is several words wide, and with a dozen contenders an
	// insertion sort of int32 indices beats the generic sort's struct
	// moves.
	order := n.scratchOrder(len(n.pending))
	for i := 1; i < len(order); i++ {
		oi := order[i]
		key := n.pending[oi].offset
		j := i - 1
		for j >= 0 && n.pending[order[j]].offset > key {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = oi
	}

	// CSMA deferral pass: a sender that finds the channel busy waits for
	// the tail of the ongoing frame plus a short random backoff — but only
	// if the ongoing frame started at least CCABlindS earlier; a frame
	// younger than the carrier-sense blind window is invisible, so the
	// sender transmits anyway and the collision pass below corrupts both.
	starts := n.scratchStarts(len(n.pending))
	busyUntil := -1.0
	lastStart := -1.0
	for i, oi := range order {
		start := n.pending[oi].offset
		if start < busyUntil && start-lastStart >= blind {
			start = busyUntil + rng.Float64()*0.002
		}
		starts[i] = start
		if end := start + airtime; end > busyUntil {
			busyUntil = end
		}
		lastStart = start
	}

	// Collision pass: consecutive starts within the CCA blind window
	// corrupt each other.
	collided := n.scratchCollided(len(n.pending))
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] < blind {
			collided[i] = true
			collided[i-1] = true
		}
	}

	for i, oi := range order {
		tx := &n.pending[oi]
		n.st.Stats.Sent++
		if collided[i] {
			n.st.Stats.Collided++
			continue
		}
		if loss > 0 && rng.Float64() < loss {
			n.st.Stats.LostRandom++
			continue
		}
		n.st.Stats.Delivered++
		n.st.Stats.TotalDelayS += starts[i] - tx.offset + airtime
		for si := range n.subs {
			if s := &n.subs[si]; s.matches(tx.msg.Type) {
				s.fn(tx.msg)
			}
		}
		for _, sn := range n.sniffers {
			sn(tx.msg)
		}
	}
	n.pending = n.pending[:0]
}
