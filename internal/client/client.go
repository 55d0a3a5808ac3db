// Package client implements the client-side protocol machine: submitting
// transactions, collecting replies, and retransmitting or escalating on
// timeout.
//
// Requests: the machine sends one request per flush, not one per
// transaction. Submissions, window refills and retransmissions only queue
// transactions; Flush, which the host calls after each run of events, sends
// everything queued since the last Flush as one request per destination set
// (the assigned primary, or every replica), split only at maxEnvelopeTxns.
// A request carries one authenticator tag, so a replica verifies one tag
// per request. Nothing waits to fill a request: a lone transaction leaves
// at the next Flush, and the only timer is the per-transaction retry timer,
// armed when the transaction leaves.
//
// Replies: every deployment (PBFT, Mir-BFT, and RCC over PBFT instances)
// answers clients after execution, and a client accepts a
// result once f+1 replicas report the identical outcome (one of them must
// be non-faulty). Replicas answer with one reply per (client, decided
// batch) that lists every seq of the client the batch carried — the
// paper's §V-B reply, one authenticator for up to a whole batch — and the
// client applies the f+1 rule to each listed seq it has in flight. If the
// assigned primary neglects the request, the client
// broadcasts it to all replicas, which forward it and start failure
// detection (§III-E "forced execution").
package client

import (
	"sync"
	"time"

	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes a client.
type Config struct {
	// Client is the client identity.
	Client types.ClientID
	// RetryTimeout is the retransmission / escalation timeout.
	RetryTimeout time.Duration
	// Broadcast sends every request to all replicas instead of only the
	// assigned instance's primary. RCC clients broadcast: every replica
	// forwards to the serving instance, enabling neglect detection.
	Broadcast bool
	// Primary is the replica to send to when Broadcast is false.
	Primary types.ReplicaID
	// Instance routes the request to a specific instance (RCC assigns
	// clients to instances; standalone protocols use instance 0).
	Instance types.InstanceID
}

func (c *Config) defaults() {
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = time.Second
	}
}

// Completion describes one finished transaction.
type Completion struct {
	Seq     uint64
	Latency time.Duration
	Result  types.Digest
}

// Client is a deterministic client machine. It submits the transactions
// queued with Submit one after another (pipelined up to Window) and records
// completions.
type Client struct {
	cfg Config
	env sm.ClientEnv

	queue    []types.Transaction
	inFlight map[uint64]*pending
	window   int
	// unsent lists the transactions put in flight or due for
	// retransmission since the last Flush, in that order.
	unsent []*pending

	// statsMu guards completions and retries: the only fields external
	// goroutines may read while the machine runs on its event loop.
	statsMu     sync.Mutex
	completions []Completion
	retries     uint64
	// onComplete, when set, observes every completion from within the
	// client's event loop (used by runtimes to bridge to channels).
	onComplete func(Completion)
}

type pending struct {
	tx        types.Transaction
	sentAt    time.Duration
	replies   map[types.ReplicaID]types.Digest // result digest per replying replica
	escalated bool                             // broadcast after neglect
}

var _ sm.ClientMachine = (*Client)(nil)

// New creates a client machine.
func New(cfg Config) *Client {
	cfg.defaults()
	return &Client{cfg: cfg, inFlight: make(map[uint64]*pending), window: 1}
}

// SetWindow allows w transactions in flight concurrently (default 1).
func (c *Client) SetWindow(w int) {
	if w >= 1 {
		c.window = w
	}
}

// Submit queues a transaction for submission. Safe to call before Start.
func (c *Client) Submit(tx types.Transaction) { c.queue = append(c.queue, tx) }

// SetCompletionHook registers a callback invoked (from the client's event
// loop) on every completion. Set before Start.
func (c *Client) SetCompletionHook(f func(Completion)) { c.onComplete = f }

// Completions returns a snapshot of the finished transactions in
// completion order. Safe to call from any goroutine.
func (c *Client) Completions() []Completion {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return append([]Completion(nil), c.completions...)
}

// Retries returns how many retransmissions/escalations the client issued.
// Safe to call from any goroutine.
func (c *Client) Retries() uint64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.retries
}

// Done reports whether every queued transaction completed.
func (c *Client) Done() bool { return len(c.queue) == 0 && len(c.inFlight) == 0 }

// Start implements sm.ClientMachine.
func (c *Client) Start(env sm.ClientEnv) {
	c.env = env
	c.pump()
}

// pump moves queued transactions into flight up to the window.
func (c *Client) pump() {
	for len(c.inFlight) < c.window && len(c.queue) > 0 {
		tx := c.queue[0]
		c.queue = c.queue[1:]
		p := &pending{
			tx:      tx,
			sentAt:  c.env.Now(),
			replies: make(map[types.ReplicaID]types.Digest),
		}
		c.inFlight[tx.Seq] = p
		c.send(p)
	}
}

// maxEnvelopeTxns caps the transactions one request carries at one full
// consensus batch (§V-B).
const maxEnvelopeTxns = 100

// send queues p for the next Flush.
func (c *Client) send(p *pending) { c.unsent = append(c.unsent, p) }

// Flush implements sm.ClientMachine: every transaction queued since the
// last Flush leaves now, in queue order, as requests of at most
// maxEnvelopeTxns — one run to the assigned primary, one to every replica
// (broadcast clients, escalated retransmissions). Each transaction's retry
// timer starts as it leaves.
func (c *Client) Flush() {
	var toPrimary, toAll []types.Transaction
	for _, p := range c.unsent {
		if c.inFlight[p.tx.Seq] != p {
			continue // completed before it left
		}
		if c.cfg.Broadcast || p.escalated {
			toAll = append(toAll, p.tx)
		} else {
			toPrimary = append(toPrimary, p.tx)
		}
		c.env.SetTimer(sm.TimerID{Kind: sm.TimerClient, Round: types.Round(p.tx.Seq)}, c.cfg.RetryTimeout)
	}
	clear(c.unsent)
	c.unsent = c.unsent[:0]
	c.emit(toPrimary, func(m types.Message) { c.env.Send(c.cfg.Primary, m) })
	c.emit(toAll, c.env.Broadcast)
}

// emit hands txns to send as requests of at most maxEnvelopeTxns. Each
// request owns its slice: the transport may still encode it after Flush.
func (c *Client) emit(txns []types.Transaction, send func(types.Message)) {
	for len(txns) > 0 {
		n := min(len(txns), maxEnvelopeTxns)
		send(types.NewClientRequest(c.cfg.Instance, txns[:n:n]...))
		txns = txns[n:]
	}
}

// Submission is a local event carrying a new transaction into a running
// client's event loop (it never goes on the wire). Runtimes deliver it via
// OnMessage, keeping all machine access on the event loop.
type Submission struct {
	Tx types.Transaction
}

// Type implements types.Message.
func (Submission) Type() types.MsgType { return types.MsgInvalid }

// Instance implements types.Message.
func (Submission) Instance() types.InstanceID { return 0 }

// WireSize implements types.Message.
func (Submission) WireSize() int { return 0 }

// OnMessage implements sm.ClientMachine.
func (c *Client) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *Submission:
		c.queue = append(c.queue, msg.Tx)
		c.pump()
	case *types.ClientReply:
		c.onReply(from, msg)
	}
}

func (c *Client) onReply(from types.ReplicaID, m *types.ClientReply) {
	if m.Client != c.cfg.Client {
		return
	}
	// One reply covers every seq of this client in one decided batch; seqs
	// not in flight when it arrived (already completed, never sent) are
	// ignored, so the window refills only after the loop.
	for _, seq := range m.Seqs {
		p, ok := c.inFlight[seq]
		if !ok {
			continue
		}
		p.replies[from] = m.Result
		// f+1 matching results guarantee one comes from a non-faulty replica.
		count := 0
		for _, d := range p.replies {
			if d == m.Result {
				count++
			}
		}
		if count >= c.env.Params().FaultDetection() {
			c.complete(p, m.Result)
		}
	}
	c.pump()
}

// complete retires p and records its completion; the caller refills the
// window with pump.
func (c *Client) complete(p *pending, result types.Digest) {
	delete(c.inFlight, p.tx.Seq)
	c.env.CancelTimer(sm.TimerID{Kind: sm.TimerClient, Round: types.Round(p.tx.Seq)})
	comp := Completion{
		Seq:     p.tx.Seq,
		Latency: c.env.Now() - p.sentAt,
		Result:  result,
	}
	c.statsMu.Lock()
	c.completions = append(c.completions, comp)
	c.statsMu.Unlock()
	if c.onComplete != nil {
		c.onComplete(comp)
	}
}

// OnTimer implements sm.ClientMachine.
func (c *Client) OnTimer(id sm.TimerID) {
	if id.Kind != sm.TimerClient {
		return
	}
	p, ok := c.inFlight[uint64(id.Round)]
	if !ok {
		return
	}
	// Retransmit, escalating to a broadcast so every replica forwards the
	// request and starts neglect detection (§III-E).
	p.escalated = true
	c.statsMu.Lock()
	c.retries++
	c.statsMu.Unlock()
	c.send(p)
}
