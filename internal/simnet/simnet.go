// Package simnet is a deterministic discrete-event simulator for the
// consensus protocols in this repository. It drives the real protocol state
// machines (internal/sm.Machine) over a simulated network with configurable
// one-way latency, per-replica outgoing bandwidth, message drop rules, and
// crash faults.
//
// Determinism: with the same seed and the same machines, a simulation
// replays identically — events are ordered by (virtual time, sequence
// number). This is what makes the protocol tests reproducible and lets the
// benchmark harness regenerate the paper's failure timeline (Fig. 10).
//
// The simulator stands in for the paper's Google Cloud deployment. It
// charges per-link latency and per-replica outgoing bandwidth, the two
// resources the paper's primary-bandwidth argument (§I–II) turns on.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes a simulated network.
type Config struct {
	// N is the number of replicas. Replica IDs are 0..N-1.
	N int
	// Latency is the base one-way message latency.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) component per message.
	Jitter time.Duration
	// LatencyMatrix, when non-nil, gives the base one-way latency of each
	// directed replica link, indexed [from][to]; it overrides Latency for
	// replica-to-replica messages (client links keep the global base).
	// Jitter applies on top either way. WANLatencyMatrix builds a
	// geo-distributed preset.
	LatencyMatrix [][]time.Duration
	// BandwidthBps is each replica's outgoing bandwidth in bits per
	// second; 0 means infinite (no serialization delay).
	BandwidthBps float64
	// Seed seeds the jitter RNG.
	Seed int64
	// Drop, when non-nil, is consulted for every replica-to-replica
	// message; returning true silently drops it. This is the fault
	// injection hook: crashes, partitions, and in-the-dark attacks are
	// all drop rules.
	Drop func(from, to types.ReplicaID, m types.Message) bool
	// DropClient, when non-nil, drops replica-to-client messages.
	DropClient func(from types.ReplicaID, c types.ClientID, m types.Message) bool
	// Trace, when non-nil, receives a line per simulation event.
	Trace func(format string, args ...any)
}

type eventKind uint8

const (
	evMessage       eventKind = iota + 1
	evClientMessage           // replica -> client
	evTimer
	evClientTimer
	evFunc
)

type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind

	to       types.ReplicaID
	toClient types.ClientID
	from     sm.Source
	msg      types.Message

	timer    sm.TimerID
	canceled *bool

	fn func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Network is a simulated deployment of N replicas plus any registered
// clients.
type Network struct {
	cfg     Config
	params  quorum.Params
	clock   time.Duration
	queue   eventHeap
	seq     uint64
	rng     *rand.Rand
	nodes   []*Node
	clients map[types.ClientID]*ClientNode

	// Stats.
	msgsSent   uint64
	bytesSent  uint64
	msgsByType map[types.MsgType]uint64
}

// New creates a network. Machines are attached with SetMachine before Run.
func New(cfg Config) (*Network, error) {
	p, err := quorum.NewParams(cfg.N)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:        cfg,
		params:     p,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		clients:    make(map[types.ClientID]*ClientNode),
		msgsByType: make(map[types.MsgType]uint64),
	}
	n.nodes = make([]*Node, cfg.N)
	for i := range n.nodes {
		n.nodes[i] = &Node{
			id:     types.ReplicaID(i),
			net:    n,
			timers: make(map[sm.TimerID]*bool),
		}
	}
	return n, nil
}

// Params returns the quorum parameters of the deployment.
func (n *Network) Params() quorum.Params { return n.params }

// Node returns replica r's simulation node.
func (n *Network) Node(r types.ReplicaID) *Node { return n.nodes[r] }

// SetMachine attaches the protocol machine of replica r.
func (n *Network) SetMachine(r types.ReplicaID, m sm.Machine) {
	n.nodes[r].machine = m
}

// AddClient registers a client machine.
func (n *Network) AddClient(c types.ClientID, m sm.ClientMachine) *ClientNode {
	cn := &ClientNode{id: c, net: n, machine: m, timers: make(map[sm.TimerID]*bool)}
	n.clients[c] = cn
	return cn
}

// Start invokes Start on every attached machine and client.
func (n *Network) Start() {
	for _, nd := range n.nodes {
		if nd.machine != nil {
			nd.machine.Start(nd)
		}
	}
	for _, c := range n.clients {
		c.machine.Start(c)
		c.machine.Flush()
	}
}

// Now returns the virtual clock.
func (n *Network) Now() time.Duration { return n.clock }

// MessagesSent returns the number of replica-to-replica and
// replica-to-client messages transmitted (self-deliveries excluded).
func (n *Network) MessagesSent() uint64 { return n.msgsSent }

// BytesSent returns the total simulated wire bytes transmitted.
func (n *Network) BytesSent() uint64 { return n.bytesSent }

// MessagesByType returns per-type transmission counts.
func (n *Network) MessagesByType() map[types.MsgType]uint64 { return n.msgsByType }

// Crash makes replica r drop every future inbound and outbound message and
// stop firing timers. (A crash is modeled, not executed: the machine object
// stays attached but is never invoked again.)
func (n *Network) Crash(r types.ReplicaID) { n.nodes[r].crashed = true }

// Restore undoes Crash (used to model recovering replicas).
func (n *Network) Restore(r types.ReplicaID) { n.nodes[r].crashed = false }

// Schedule runs fn at virtual time at (or immediately if at <= now). Used
// by experiments to inject faults mid-run.
func (n *Network) Schedule(at time.Duration, fn func()) {
	n.push(&event{at: at, kind: evFunc, fn: fn})
}

func (n *Network) push(e *event) {
	n.seq++
	e.seq = n.seq
	if e.at < n.clock {
		e.at = n.clock
	}
	heap.Push(&n.queue, e)
}

// Step processes the next event. It returns false when the queue is empty.
func (n *Network) Step() bool {
	if n.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&n.queue).(*event)
	n.clock = e.at
	switch e.kind {
	case evMessage:
		nd := n.nodes[e.to]
		if nd.crashed || nd.machine == nil {
			return true
		}
		nd.machine.OnMessage(e.from, e.msg)
	case evClientMessage:
		c, ok := n.clients[e.toClient]
		if !ok {
			return true
		}
		c.machine.OnMessage(e.from.Replica, e.msg)
		c.machine.Flush()
	case evTimer:
		if *e.canceled {
			return true
		}
		nd := n.nodes[e.to]
		delete(nd.timers, e.timer)
		if nd.crashed || nd.machine == nil {
			return true
		}
		nd.machine.OnTimer(e.timer)
	case evClientTimer:
		if *e.canceled {
			return true
		}
		c, ok := n.clients[e.toClient]
		if !ok {
			return true
		}
		delete(c.timers, e.timer)
		c.machine.OnTimer(e.timer)
		c.machine.Flush()
	case evFunc:
		e.fn()
	}
	return true
}

// Run processes events until the virtual clock would exceed until or the
// queue drains. It returns the number of events processed.
func (n *Network) Run(until time.Duration) int {
	count := 0
	for n.queue.Len() > 0 && n.queue[0].at <= until {
		n.Step()
		count++
	}
	if n.clock < until {
		n.clock = until
	}
	return count
}

// RunSteps processes at most max events, returning how many ran.
func (n *Network) RunSteps(max int) int {
	count := 0
	for count < max && n.Step() {
		count++
	}
	return count
}

// latency computes the one-way delay of the next message on the from→to
// replica link.
func (n *Network) latency(from, to types.ReplicaID) time.Duration {
	d := n.cfg.Latency
	if m := n.cfg.LatencyMatrix; int(from) < len(m) && int(to) < len(m[from]) {
		d = m[from][to]
	}
	return n.jittered(d)
}

// clientLatency is the one-way delay on client links; latency matrices
// cover only replica links, so clients always use the global base.
func (n *Network) clientLatency() time.Duration { return n.jittered(n.cfg.Latency) }

func (n *Network) jittered(d time.Duration) time.Duration {
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return d
}

// transmit models occupancy of from's outgoing link and returns the arrival
// time of a message of size bytes whose propagation delay is lat.
func (n *Network) transmit(from *Node, bytes int, lat time.Duration) time.Duration {
	start := n.clock
	if n.cfg.BandwidthBps > 0 {
		if from.linkFreeAt > start {
			start = from.linkFreeAt
		}
		ser := time.Duration(float64(bytes) * 8 / n.cfg.BandwidthBps * float64(time.Second))
		from.linkFreeAt = start + ser
		start = from.linkFreeAt
	}
	return start + lat
}

func (n *Network) trace(format string, args ...any) {
	if n.cfg.Trace != nil {
		n.cfg.Trace(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Node: the per-replica sm.Env implementation
// ---------------------------------------------------------------------------

// Node is one simulated replica.
type Node struct {
	id      types.ReplicaID
	net     *Network
	machine sm.Machine
	timers  map[sm.TimerID]*bool
	crashed bool

	linkFreeAt time.Duration

	decisions []sm.Decision
	suspects  []Suspicion
}

// Suspicion records a Suspect callback for assertions in tests.
type Suspicion struct {
	Instance types.InstanceID
	Round    types.Round
	At       time.Duration
}

// Decisions returns the decisions delivered by this replica, in order.
func (nd *Node) Decisions() []sm.Decision { return nd.decisions }

// Suspicions returns the failures this replica's machine reported.
func (nd *Node) Suspicions() []Suspicion { return nd.suspects }

// Machine returns the attached machine.
func (nd *Node) Machine() sm.Machine { return nd.machine }

// ID implements sm.Env.
func (nd *Node) ID() types.ReplicaID { return nd.id }

// Params implements sm.Env.
func (nd *Node) Params() quorum.Params { return nd.net.params }

// Send implements sm.Env.
func (nd *Node) Send(to types.ReplicaID, m types.Message) {
	if nd.crashed {
		return
	}
	if to == nd.id {
		// Self-delivery: local, immediate, no network cost.
		nd.net.push(&event{at: nd.net.clock, kind: evMessage, to: to, from: sm.FromReplica(nd.id), msg: m})
		return
	}
	if int(to) >= len(nd.net.nodes) {
		panic(fmt.Sprintf("simnet: send to unknown replica %d", to))
	}
	if nd.net.cfg.Drop != nil && nd.net.cfg.Drop(nd.id, to, m) {
		nd.net.trace("%v drop %s %d->%d", nd.net.clock, m.Type(), nd.id, to)
		return
	}
	arrival := nd.net.transmit(nd, m.WireSize(), nd.net.latency(nd.id, to))
	nd.net.msgsSent++
	nd.net.bytesSent += uint64(m.WireSize())
	nd.net.msgsByType[m.Type()]++
	nd.net.push(&event{at: arrival, kind: evMessage, to: to, from: sm.FromReplica(nd.id), msg: m})
}

// Broadcast implements sm.Env: send to every replica including self.
func (nd *Node) Broadcast(m types.Message) {
	for i := range nd.net.nodes {
		nd.Send(types.ReplicaID(i), m)
	}
}

// SendClient implements sm.Env.
func (nd *Node) SendClient(c types.ClientID, m types.Message) {
	if nd.crashed {
		return
	}
	if nd.net.cfg.DropClient != nil && nd.net.cfg.DropClient(nd.id, c, m) {
		return
	}
	arrival := nd.net.transmit(nd, m.WireSize(), nd.net.clientLatency())
	nd.net.msgsSent++
	nd.net.bytesSent += uint64(m.WireSize())
	nd.net.msgsByType[m.Type()]++
	nd.net.push(&event{at: arrival, kind: evClientMessage, toClient: c, from: sm.FromReplica(nd.id), msg: m})
}

// Deliver implements sm.Env.
func (nd *Node) Deliver(d sm.Decision) {
	nd.decisions = append(nd.decisions, d)
}

// SetTimer implements sm.Env.
func (nd *Node) SetTimer(id sm.TimerID, d time.Duration) {
	nd.CancelTimer(id)
	canceled := new(bool)
	nd.timers[id] = canceled
	nd.net.push(&event{at: nd.net.clock + d, kind: evTimer, to: nd.id, timer: id, canceled: canceled})
}

// CancelTimer implements sm.Env.
func (nd *Node) CancelTimer(id sm.TimerID) {
	if c, ok := nd.timers[id]; ok {
		*c = true
		delete(nd.timers, id)
	}
}

// Now implements sm.Env.
func (nd *Node) Now() time.Duration { return nd.net.clock }

// Suspect implements sm.Env.
func (nd *Node) Suspect(inst types.InstanceID, round types.Round) {
	nd.suspects = append(nd.suspects, Suspicion{Instance: inst, Round: round, At: nd.net.clock})
}

// Logf implements sm.Env.
func (nd *Node) Logf(format string, args ...any) {
	if nd.net.cfg.Trace != nil {
		nd.net.cfg.Trace("[%v r%d] "+format, append([]any{nd.net.clock, nd.id}, args...)...)
	}
}

// ---------------------------------------------------------------------------
// ClientNode: the per-client sm.ClientEnv implementation
// ---------------------------------------------------------------------------

// ClientNode is one simulated client.
type ClientNode struct {
	id      types.ClientID
	net     *Network
	machine sm.ClientMachine
	timers  map[sm.TimerID]*bool
}

// Client implements sm.ClientEnv.
func (c *ClientNode) Client() types.ClientID { return c.id }

// Params implements sm.ClientEnv.
func (c *ClientNode) Params() quorum.Params { return c.net.params }

// Send implements sm.ClientEnv. Client uplinks are not bandwidth-modeled
// (the paper saturates replica links, not client links).
func (c *ClientNode) Send(to types.ReplicaID, m types.Message) {
	arrival := c.net.clock + c.net.clientLatency()
	c.net.push(&event{at: arrival, kind: evMessage, to: to, from: sm.FromClient(c.id), msg: m})
}

// Broadcast implements sm.ClientEnv.
func (c *ClientNode) Broadcast(m types.Message) {
	for i := 0; i < c.net.cfg.N; i++ {
		c.Send(types.ReplicaID(i), m)
	}
}

// SetTimer implements sm.ClientEnv.
func (c *ClientNode) SetTimer(id sm.TimerID, d time.Duration) {
	c.CancelTimer(id)
	canceled := new(bool)
	c.timers[id] = canceled
	c.net.push(&event{at: c.net.clock + d, kind: evClientTimer, toClient: c.id, timer: id, canceled: canceled})
}

// CancelTimer implements sm.ClientEnv.
func (c *ClientNode) CancelTimer(id sm.TimerID) {
	if x, ok := c.timers[id]; ok {
		*x = true
		delete(c.timers, id)
	}
}

// Now implements sm.ClientEnv.
func (c *ClientNode) Now() time.Duration { return c.net.clock }

// Logf implements sm.ClientEnv.
func (c *ClientNode) Logf(format string, args ...any) {
	if c.net.cfg.Trace != nil {
		c.net.cfg.Trace("[%v c%d] "+format, append([]any{c.net.clock, c.id}, args...)...)
	}
}
