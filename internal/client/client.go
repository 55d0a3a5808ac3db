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
// at the next Flush.
//
// Retries: each send falls due for retransmission RetryTimeout after it
// leaves. Sends leave in time order, so their deadlines form a FIFO that
// the client keeps in a reused ring, and it arms one timer for the whole
// client (sm.TimerClient), due at the deadline at the head of the FIFO.
// When it fires, the client retransmits exactly the sends whose deadline
// has passed and that are still their transaction's latest, drops the
// entries of completed or re-sent transactions, and arms the timer for the
// next live deadline. A completion does not re-arm the timer, so it may
// fire early; an early or stale firing retransmits nothing. Replies drop
// the dead entries at the head of the FIFO, so it stays about the window's
// size, and cancel the timer once no send is pending.
//
// Replies: every deployment (standalone PBFT, and RCC over PBFT instances)
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

	queue    fifo[types.Transaction]
	inFlight map[uint64]*pending
	free     []*pending // retired pendings, reused by pump
	window   int
	// unsent lists the transactions put in flight or due for
	// retransmission since the last Flush, in that order.
	unsent []*pending
	// deadlines holds one entry per send, in send order; armed reports
	// whether the client timer is set.
	deadlines fifo[deadline]
	armed     bool

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
	tx     types.Transaction
	sentAt time.Duration
	due    time.Duration // retry deadline of the latest send
	// votes holds the latest result of each replying replica, at most n.
	votes     []vote
	escalated bool // broadcast after neglect
	queued    bool // listed in unsent
}

type vote struct {
	from   types.ReplicaID
	result types.Digest
}

// deadline is one send of transaction seq; it falls due for retransmission
// at time at.
type deadline struct {
	seq uint64
	at  time.Duration
}

// clientTimer is the client's one retry timer.
var clientTimer = sm.TimerID{Kind: sm.TimerClient}

// vote records from's result, replacing its earlier one, and returns how
// many replicas reported that result.
func (p *pending) vote(from types.ReplicaID, result types.Digest) int {
	i := 0
	for i < len(p.votes) && p.votes[i].from != from {
		i++
	}
	if i == len(p.votes) {
		p.votes = append(p.votes, vote{from: from})
	}
	p.votes[i].result = result
	n := 0
	for _, v := range p.votes {
		if v.result == result {
			n++
		}
	}
	return n
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
func (c *Client) Submit(tx types.Transaction) { c.queue.push(tx) }

// SetCompletionHook registers a callback invoked (from the client's event
// loop) on every completion. Set before Start. A client with a hook keeps
// no completion list: the hook is the only record, and Completions stays
// empty. The hook may call Submit to refill a closed loop: Submit only
// queues, and the client moves queued transactions into flight once the
// completion returns. It must not wait on the client's own event queue
// (e.g. through runtime.ClientProc.DeliverReplica), which only the
// hook's caller drains.
func (c *Client) SetCompletionHook(f func(Completion)) { c.onComplete = f }

// Completions returns a snapshot of the finished transactions in
// completion order, for a client without a completion hook (see
// SetCompletionHook). Safe to call from any goroutine.
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
func (c *Client) Done() bool { return c.queue.len() == 0 && len(c.inFlight) == 0 }

// Start implements sm.ClientMachine.
func (c *Client) Start(env sm.ClientEnv) {
	c.env = env
	c.pump()
}

// pump moves queued transactions into flight up to the window.
func (c *Client) pump() {
	for len(c.inFlight) < c.window && c.queue.len() > 0 {
		tx := c.queue.pop()
		var p *pending
		if n := len(c.free); n > 0 {
			p = c.free[n-1]
			c.free = c.free[:n-1]
			*p = pending{votes: p.votes[:0]}
		} else {
			p = &pending{votes: make([]vote, 0, c.env.Params().N)}
		}
		p.tx, p.sentAt = tx, c.env.Now()
		c.inFlight[tx.Seq] = p
		c.send(p)
	}
}

// maxEnvelopeTxns caps the transactions one request carries at one full
// consensus batch (§V-B).
const maxEnvelopeTxns = 100

// send queues p for the next Flush.
func (c *Client) send(p *pending) {
	if !p.queued {
		p.queued = true
		c.unsent = append(c.unsent, p)
	}
}

// Flush implements sm.ClientMachine: every transaction queued since the
// last Flush leaves now, in queue order, as requests of at most
// maxEnvelopeTxns — one run to the assigned primary, one to every replica
// (broadcast clients, escalated retransmissions). Each send joins the
// deadline FIFO as it leaves.
func (c *Client) Flush() {
	if len(c.unsent) == 0 {
		return
	}
	due := c.env.Now() + c.cfg.RetryTimeout
	var toPrimary, toAll []types.Transaction
	for i, p := range c.unsent {
		// A pending completed before it left, or listed twice because it
		// was reused within the run, leaves at most once.
		if !p.queued || c.inFlight[p.tx.Seq] != p {
			p.queued = false
			continue
		}
		p.queued = false
		dst := &toPrimary
		if c.cfg.Broadcast || p.escalated {
			dst = &toAll
		}
		if *dst == nil {
			*dst = make([]types.Transaction, 0, len(c.unsent)-i)
		}
		*dst = append(*dst, p.tx)
		p.due = due
		c.deadlines.push(deadline{seq: p.tx.Seq, at: due})
	}
	clear(c.unsent)
	c.unsent = c.unsent[:0]
	c.arm()
	c.emit(toPrimary, func(m types.Message) { c.env.Send(c.cfg.Primary, m) })
	c.emit(toAll, c.env.Broadcast)
}

// arm sets the client timer for the deadline at the head of the FIFO,
// unless it is already set.
func (c *Client) arm() {
	if c.armed || c.deadlines.len() == 0 {
		return
	}
	c.armed = true
	c.env.SetTimer(clientTimer, c.deadlines.peek().at-c.env.Now())
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
		c.queue.push(msg.Tx)
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
	need := c.env.Params().FaultDetection()
	for _, seq := range m.Seqs {
		// f+1 matching results guarantee one comes from a non-faulty replica.
		if p := c.inFlight[seq]; p != nil && p.vote(from, m.Result) >= need {
			c.complete(p, m.Result)
		}
	}
	c.pump()
	c.prune()
	if c.deadlines.len() == 0 && c.armed {
		c.armed = false
		c.env.CancelTimer(clientTimer)
	}
}

// complete retires p and records its completion; the caller refills the
// window with pump.
func (c *Client) complete(p *pending, result types.Digest) {
	delete(c.inFlight, p.tx.Seq)
	comp := Completion{
		Seq:     p.tx.Seq,
		Latency: c.env.Now() - p.sentAt,
		Result:  result,
	}
	c.free = append(c.free, p)
	if c.onComplete != nil {
		c.onComplete(comp)
		return
	}
	c.statsMu.Lock()
	c.completions = append(c.completions, comp)
	c.statsMu.Unlock()
}

// OnTimer implements sm.ClientMachine: it retransmits every send whose
// deadline has passed and that is still its transaction's latest, then
// re-arms for the next one.
func (c *Client) OnTimer(id sm.TimerID) {
	if id != clientTimer || !c.armed {
		return
	}
	c.armed = false
	now := c.env.Now()
	for c.prune(); c.deadlines.len() > 0 && c.deadlines.peek().at <= now; c.prune() {
		// Retransmit, escalating to a broadcast so every replica forwards
		// the request and starts neglect detection (§III-E).
		p := c.inFlight[c.deadlines.pop().seq]
		p.escalated = true
		c.statsMu.Lock()
		c.retries++
		c.statsMu.Unlock()
		c.send(p)
	}
	c.arm()
}

// prune drops the entries at the head of the deadline FIFO that no longer
// count: sends of completed transactions, and sends a later send of the
// same transaction superseded.
func (c *Client) prune() {
	for c.deadlines.len() > 0 {
		d := c.deadlines.peek()
		if p := c.inFlight[d.seq]; p != nil && p.due == d.at {
			return
		}
		c.deadlines.pop()
	}
}

// fifo is a queue whose backing array is reused: pops advance the head,
// and a push that would grow the array first moves the live entries to the
// front when at least half of it is popped.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) peek() T { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
