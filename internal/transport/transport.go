// Package transport provides the message transports of the replica runtime:
// an in-process transport for tests and single-machine deployments, and a
// TCP transport (binary wire format v13, see wire.go) for real multi-host
// deployments via cmd/rccnode and cmd/rccclient.
//
// # Non-blocking contract
//
// Send and SendClient are enqueue-only on every transport: they place the
// message on a bounded per-destination queue and return without performing
// encoding, authentication, or network I/O. A dedicated writer goroutine per
// destination drains its queue, encodes messages through the binary codec in
// internal/types, coalesces everything queued at that moment into one
// multi-message frame, and hands the kernel a single buffer — so the
// consensus event loop never waits on a socket, and one slow destination
// never delays traffic to any other.
//
// The two link classes overflow differently:
//
//   - Replica links (peer connections a node dials) exert BACKPRESSURE: when
//     a healthy peer's queue is full, Send blocks until space frees. While a
//     peer is unreachable the writer drops instead (counted, see Stats) and
//     redials with exponential backoff, so a dead peer can never wedge the
//     event loop — consensus timeouts and retransmission own that failure.
//     The backpressure is bounded: a peer that accepts the connection but
//     stops draining it fails its next write within the WriteTimeout
//     constant (10 s), at which point the link demotes to the same
//     drop-while-down policy.
//   - Client links (inbound connections from clients) DROP on overflow,
//     with an observable counter: a reply dropped for one stalled client
//     costs nothing — the block is durable and the client collects its f+1
//     replies from other replicas or retries.
//
// Authentication: every frame carries one authenticator tag over the exact
// bytes of its records, computed on the writer goroutine and verified
// against the sender identity announced in the connection's stream header
// before any record is decoded — so no decoded field escapes the tag, and a
// frame that fails is dropped whole. Each link's reader goroutine checks,
// decodes and delivers its own frames, so per-link delivery order holds and
// links verify in parallel; verified client frames can be memoized in a
// TCPConfig.DigestCache. Links streaming forged frames are demoted after
// the AuthFailLimit constant (16) of consecutive failures. See wire.go and
// verify.go.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Endpoint delivers messages to the local node.
type Endpoint interface {
	// DeliverReplica hands a verified message from another replica.
	DeliverReplica(from types.ReplicaID, m types.Message)
	// DeliverClient hands a verified message from a client.
	DeliverClient(from types.ClientID, m types.Message)
}

// Transport sends messages to remote nodes. Both methods are enqueue-only:
// see the package documentation for the queueing and overflow model.
type Transport interface {
	// Send enqueues m for replica `to`.
	Send(to types.ReplicaID, m types.Message) error
	// SendClient enqueues m for client c.
	SendClient(c types.ClientID, m types.Message) error
	// Close drains the outbound queues (bounded by the drain timeout) and
	// releases resources.
	Close() error
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

// Queue depths of the in-process transport, mirroring the TCP defaults.
const (
	// MemQueueDepth bounds each replica endpoint's delivery queue.
	MemQueueDepth = 4096
	// MemClientQueueDepth bounds each client endpoint's delivery queue.
	MemClientQueueDepth = 1024
)

// Memory is an in-process transport hub connecting replicas and clients.
// It exercises the same non-blocking contract as the TCP transport: Send
// enqueues onto the destination endpoint's bounded queue and a per-endpoint
// delivery goroutine hands messages to the Endpoint, so in-process tests see
// the same semantics (asynchrony, replica backpressure, client drops) as a
// real deployment. Safe for concurrent use.
type Memory struct {
	mu       sync.RWMutex
	replicas map[types.ReplicaID]*memEndpoint
	clients  map[types.ClientID]*memEndpoint
	dropped  atomic.Uint64
}

// NewMemory creates an empty hub.
func NewMemory() *Memory {
	return &Memory{
		replicas: make(map[types.ReplicaID]*memEndpoint),
		clients:  make(map[types.ClientID]*memEndpoint),
	}
}

type memItem struct {
	fromReplica types.ReplicaID
	fromClient  types.ClientID
	isClient    bool
	m           types.Message
}

// memEndpoint is one attached node: its bounded inbound queue and the
// delivery goroutine draining it.
type memEndpoint struct {
	ep   Endpoint
	ch   chan memItem
	done chan struct{}
	once sync.Once
}

func startMemEndpoint(ep Endpoint, depth int) *memEndpoint {
	me := &memEndpoint{ep: ep, ch: make(chan memItem, depth), done: make(chan struct{})}
	go me.run()
	return me
}

func (me *memEndpoint) run() {
	for {
		select {
		case it := <-me.ch:
			if it.isClient {
				me.ep.DeliverClient(it.fromClient, it.m)
			} else {
				me.ep.DeliverReplica(it.fromReplica, it.m)
			}
		case <-me.done:
			return
		}
	}
}

func (me *memEndpoint) stop() { me.once.Do(func() { close(me.done) }) }

// AttachReplica registers replica r's endpoint and returns its transport.
func (h *Memory) AttachReplica(r types.ReplicaID, ep Endpoint) Transport {
	me := startMemEndpoint(ep, MemQueueDepth)
	h.mu.Lock()
	if prev := h.replicas[r]; prev != nil {
		prev.stop()
	}
	h.replicas[r] = me
	h.mu.Unlock()
	return &memTransport{hub: h, replica: r, me: me}
}

// AttachClient registers client c's endpoint and returns its transport.
func (h *Memory) AttachClient(c types.ClientID, ep Endpoint) Transport {
	me := startMemEndpoint(ep, MemClientQueueDepth)
	h.mu.Lock()
	if prev := h.clients[c]; prev != nil {
		prev.stop()
	}
	h.clients[c] = me
	h.mu.Unlock()
	return &memTransport{hub: h, client: c, isClient: true, me: me}
}

// Detach removes replica r (models a crash): its delivery goroutine stops
// and queued messages are discarded.
func (h *Memory) Detach(r types.ReplicaID) {
	h.mu.Lock()
	me := h.replicas[r]
	delete(h.replicas, r)
	h.mu.Unlock()
	if me != nil {
		me.stop()
	}
}

// Dropped returns how many client-bound messages overflowed a client
// endpoint's queue and were discarded.
func (h *Memory) Dropped() uint64 { return h.dropped.Load() }

type memTransport struct {
	hub      *Memory
	replica  types.ReplicaID
	client   types.ClientID
	isClient bool
	// me is the endpoint this transport's Attach created: Close tears down
	// only it, never a successor registered under the same ID.
	me *memEndpoint
}

// Send enqueues m for replica `to`. Replica queues exert backpressure: a
// full queue blocks until the destination drains or detaches.
func (t *memTransport) Send(to types.ReplicaID, m types.Message) error {
	t.hub.mu.RLock()
	me := t.hub.replicas[to]
	t.hub.mu.RUnlock()
	if me == nil {
		return fmt.Errorf("transport: replica %d not attached", to)
	}
	it := memItem{fromReplica: t.replica, fromClient: t.client, isClient: t.isClient, m: m}
	select {
	case me.ch <- it:
		return nil
	case <-me.done:
		return fmt.Errorf("transport: replica %d detached", to)
	}
}

// SendClient enqueues m for client c. Client queues drop on overflow (the
// hub counts drops): a stalled client must never be able to exert
// backpressure on a replica.
func (t *memTransport) SendClient(c types.ClientID, m types.Message) error {
	t.hub.mu.RLock()
	me := t.hub.clients[c]
	t.hub.mu.RUnlock()
	if me == nil {
		return fmt.Errorf("transport: client %d not attached", c)
	}
	select {
	case me.ch <- memItem{fromReplica: t.replica, m: m}:
	default:
		t.hub.dropped.Add(1)
	}
	return nil
}

// Close detaches this node from the hub, stopping its delivery goroutine.
// If the ID has since been re-attached (a restarted node on the same hub),
// only this transport's own endpoint is stopped — the successor stays.
func (t *memTransport) Close() error {
	h := t.hub
	h.mu.Lock()
	if t.isClient {
		if h.clients[t.client] == t.me {
			delete(h.clients, t.client)
		}
	} else {
		if h.replicas[t.replica] == t.me {
			delete(h.replicas, t.replica)
		}
	}
	h.mu.Unlock()
	t.me.stop()
	return nil
}
