package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// Tracing is done from here, at the seams where the program already takes an
// interface: crypto.Authenticator, exec.Application, transport.Transport,
// transport.Endpoint and sm.Machine. No program file records a span.

// sampleOneIn is the span sampling rate over (client, seq).
const sampleOneIn = 64

// codecSampleOneIn is the rate at which messages seen at the machine seam are
// kept for the post-run codec replay, and codecSampleCap bounds how many are
// kept per message type (a PrePrepare pins its 100-transaction batch).
const (
	codecSampleOneIn = 256
	codecSampleCap   = 2048
)

// reqTrace holds the timestamps of one sampled request, all on the process
// clock; 0 = not seen. Per-replica points are indexed by replica ID.
type reqTrace struct {
	client types.ClientID
	seq    uint64

	due        int64 // scheduled (open loop) or sent (closed loop)
	cliSend    int64 // client Transport.Send towards the serving primary
	priDeliver int64 // primary's Endpoint.DeliverClient
	ppSend     int64 // primary's first Transport.Send of a PrePrepare carrying it
	done       int64 // completion hook: f+1 matching replies processed

	execStart [nodes]int64 // Application.Execute entered
	execEnd   [nodes]int64
	ack       [nodes]int64 // replica's Transport.SendClient of the reply
	reply     [nodes]int64 // client's Endpoint.DeliverReplica of that reply
}

type reqKey struct {
	c   types.ClientID
	seq uint64
}

// layerTimers are the decorator-side counters of one replica. They advance
// only while the tracer is on (inside the window).
type layerTimers struct {
	on *atomic.Bool // the tracer's switch

	cryptoNs   atomic.Int64
	cryptoOps  atomic.Int64
	verifyFail atomic.Int64
	appNs      atomic.Int64 // Keys + Execute
	machNs     atomic.Int64 // OnMessage + OnTimer
	sendWait   obs.Histogram

	// Machine-seam message census and codec sample; touched only by the
	// replica's event loop while the run is live.
	msgCount  map[types.MsgType]int64
	msgSample map[types.MsgType][]types.Message
	msgSeen   int64
}

// tracer is the in-memory span store and the per-replica layer counters of
// one traced run.
type tracer struct {
	salt   uint64
	on     atomic.Bool
	layers [nodes]*layerTimers

	mu   sync.Mutex
	reqs map[reqKey]*reqTrace

	inbox     obs.Histogram // Inspect round trips on replica 0
	probeStop chan struct{}
	probeDone chan struct{}
}

func newTracer(seed int64) *tracer {
	tr := &tracer{salt: uint64(seed) * 0x94d049bb133111eb, reqs: make(map[reqKey]*reqTrace)}
	for i := range tr.layers {
		tr.layers[i] = &layerTimers{
			on:        &tr.on,
			msgCount:  make(map[types.MsgType]int64),
			msgSample: make(map[types.MsgType][]types.Message),
		}
	}
	return tr
}

// sampled is the deterministic 1-in-64 choice of (client, seq).
func (tr *tracer) sampled(c types.ClientID, seq uint64) bool {
	h := (seq+tr.salt)*0x9e3779b97f4a7c15 ^ uint64(c)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h%sampleOneIn == 0
}

// mark applies f to the trace of (c, seq) if that request is sampled and was
// due inside the window.
func (tr *tracer) mark(c types.ClientID, seq uint64, f func(*reqTrace)) {
	if !tr.sampled(c, seq) {
		return
	}
	tr.mu.Lock()
	if rt := tr.reqs[reqKey{c, seq}]; rt != nil {
		f(rt)
	}
	tr.mu.Unlock()
}

// markDue opens the trace of a sampled request; only requests that come due
// while the tracer is on are traced.
func (tr *tracer) markDue(c types.ClientID, seq uint64, due int64) {
	if !tr.on.Load() || !tr.sampled(c, seq) {
		return
	}
	tr.mu.Lock()
	tr.reqs[reqKey{c, seq}] = &reqTrace{client: c, seq: seq, due: due}
	tr.mu.Unlock()
}

func (tr *tracer) markDone(c types.ClientID, seq uint64, t int64) {
	tr.mark(c, seq, func(rt *reqTrace) { rt.done = t })
}

func first(p *int64, t int64) {
	if *p == 0 {
		*p = t
	}
}

// startProbe measures event-loop queueing on n: every 10 ms it times an empty
// Inspect round trip through the replica's inbox.
func (tr *tracer) startProbe(n *node) {
	tr.probeStop, tr.probeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.probeDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tr.probeStop:
				return
			case <-tick.C:
				t0 := time.Now()
				if n.rep.Inspect(func() {}) {
					tr.inbox.Observe(time.Since(t0))
				}
			}
		}
	}()
}

func (tr *tracer) stopProbe() {
	close(tr.probeStop)
	<-tr.probeDone
}

// ---------------------------------------------------------------------------
// crypto.Authenticator
// ---------------------------------------------------------------------------

// tracedAuth times Tag and Verify. The transport type-asserts its
// authenticator for crypto.TagAppender and crypto.BatchAuthenticator, so
// traceAuth returns a wrapper with exactly the optional interfaces the inner
// value has.
type tracedAuth struct {
	inner crypto.Authenticator
	lt    *layerTimers
}

func (a *tracedAuth) Scheme() crypto.Scheme { return a.inner.Scheme() }

// spent charges one crypto call covering ops operations to the layer.
func (a *tracedAuth) spent(t0 time.Time, ops int) {
	if a.lt.on.Load() {
		a.lt.cryptoNs.Add(int64(time.Since(t0)))
		a.lt.cryptoOps.Add(int64(ops))
	}
}

func (a *tracedAuth) Tag(to uint32, payload []byte) []byte {
	t0 := time.Now()
	tag := a.inner.Tag(to, payload)
	a.spent(t0, 1)
	return tag
}

func (a *tracedAuth) Verify(from uint32, payload, tag []byte) bool {
	t0 := time.Now()
	ok := a.inner.Verify(from, payload, tag)
	a.spent(t0, 1)
	if !ok {
		a.lt.verifyFail.Add(1)
	}
	return ok
}

func (a *tracedAuth) appendTag(to uint32, payload, dst []byte) []byte {
	t0 := time.Now()
	dst = a.inner.(crypto.TagAppender).AppendTag(to, payload, dst)
	a.spent(t0, 1)
	return dst
}

func (a *tracedAuth) verifyBatch(from uint32, payloads, tags [][]byte, ok []bool) {
	t0 := time.Now()
	a.inner.(crypto.BatchAuthenticator).VerifyBatch(from, payloads, tags, ok)
	a.spent(t0, len(payloads))
	for _, good := range ok[:len(payloads)] {
		if !good {
			a.lt.verifyFail.Add(1)
		}
	}
}

type tracedAuthAppender struct{ *tracedAuth }

func (a tracedAuthAppender) AppendTag(to uint32, payload, dst []byte) []byte {
	return a.appendTag(to, payload, dst)
}

type tracedAuthBatch struct{ *tracedAuth }

func (a tracedAuthBatch) VerifyBatch(from uint32, payloads, tags [][]byte, ok []bool) {
	a.verifyBatch(from, payloads, tags, ok)
}

type tracedAuthBoth struct{ *tracedAuth }

func (a tracedAuthBoth) AppendTag(to uint32, payload, dst []byte) []byte {
	return a.appendTag(to, payload, dst)
}

func (a tracedAuthBoth) VerifyBatch(from uint32, payloads, tags [][]byte, ok []bool) {
	a.verifyBatch(from, payloads, tags, ok)
}

func traceAuth(inner crypto.Authenticator, lt *layerTimers) crypto.Authenticator {
	base := &tracedAuth{inner: inner, lt: lt}
	_, appender := inner.(crypto.TagAppender)
	_, batch := inner.(crypto.BatchAuthenticator)
	switch {
	case appender && batch:
		return tracedAuthBoth{base}
	case appender:
		return tracedAuthAppender{base}
	case batch:
		return tracedAuthBatch{base}
	}
	return base
}

// ---------------------------------------------------------------------------
// exec.Application
// ---------------------------------------------------------------------------

// tracedApp times Keys and Execute. It embeds the store so the optional
// store.Snapshotter stays promoted.
type tracedApp struct {
	*ycsb.Store
	tr *tracer
	id types.ReplicaID
}

func (a *tracedApp) Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool) {
	t0 := time.Now()
	keys, ok := a.Store.Keys(tx, buf)
	if a.tr.on.Load() {
		a.tr.layers[a.id].appNs.Add(int64(time.Since(t0)))
	}
	return keys, ok
}

func (a *tracedApp) Execute(tx types.Transaction) []byte {
	start := now()
	out := a.Store.Execute(tx)
	end := now()
	if a.tr.on.Load() {
		a.tr.layers[a.id].appNs.Add(end - start)
	}
	if !tx.IsNoOp() {
		a.tr.mark(tx.Client, tx.Seq, func(rt *reqTrace) {
			first(&rt.execStart[a.id], start)
			first(&rt.execEnd[a.id], end)
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// sm.Machine
// ---------------------------------------------------------------------------

// tracedMachine times the event loop's calls into the machine and keeps the
// message census. It embeds *rcc.Replica so sm.StateSyncable and
// sm.BoundarySyncable, which the runtime type-asserts, stay promoted.
type tracedMachine struct {
	*rcc.Replica
	lt *layerTimers
}

var (
	_ sm.Machine          = (*tracedMachine)(nil)
	_ sm.BoundarySyncable = (*tracedMachine)(nil)
)

func (m *tracedMachine) OnMessage(from sm.Source, msg types.Message) {
	t0 := time.Now()
	m.Replica.OnMessage(from, msg)
	if !m.lt.on.Load() {
		return
	}
	m.lt.machNs.Add(int64(time.Since(t0)))
	ty := msg.Type()
	m.lt.msgCount[ty]++
	m.lt.msgSeen++
	if m.lt.msgSeen%codecSampleOneIn == 0 && len(m.lt.msgSample[ty]) < codecSampleCap {
		m.lt.msgSample[ty] = append(m.lt.msgSample[ty], msg)
	}
}

func (m *tracedMachine) OnTimer(id sm.TimerID) {
	t0 := time.Now()
	m.Replica.OnTimer(id)
	if m.lt.on.Load() {
		m.lt.machNs.Add(int64(time.Since(t0)))
	}
}

// ---------------------------------------------------------------------------
// transport.Transport and transport.Endpoint, replica side
// ---------------------------------------------------------------------------

type tracedReplicaTransport struct {
	transport.Transport
	tr *tracer
	id types.ReplicaID
}

func (t *tracedReplicaTransport) Send(to types.ReplicaID, m types.Message) error {
	t0 := now()
	if pp, ok := m.(*types.PrePrepare); ok && pp.Batch != nil {
		for i := range pp.Batch.Txns {
			tx := &pp.Batch.Txns[i]
			if !tx.IsNoOp() {
				t.tr.mark(tx.Client, tx.Seq, func(rt *reqTrace) { first(&rt.ppSend, t0) })
			}
		}
	}
	err := t.Transport.Send(to, m)
	if t.tr.on.Load() {
		t.tr.layers[t.id].sendWait.Observe(time.Duration(now() - t0))
	}
	return err
}

func (t *tracedReplicaTransport) SendClient(c types.ClientID, m types.Message) error {
	if r, ok := m.(*types.ClientReply); ok {
		t.tr.mark(r.Client, r.Seq, func(rt *reqTrace) { first(&rt.ack[t.id], now()) })
	}
	return t.Transport.SendClient(c, m)
}

type tracedReplicaEndpoint struct {
	transport.Endpoint
	tr *tracer
	id types.ReplicaID
}

func (e *tracedReplicaEndpoint) DeliverClient(from types.ClientID, m types.Message) {
	if req, ok := m.(*types.ClientRequest); ok && primaryOf(req.Tx.Client) == e.id {
		e.tr.mark(req.Tx.Client, req.Tx.Seq, func(rt *reqTrace) { first(&rt.priDeliver, now()) })
	}
	e.Endpoint.DeliverClient(from, m)
}

// ---------------------------------------------------------------------------
// transport.Transport and transport.Endpoint, client side
// ---------------------------------------------------------------------------

type tracedClientTransport struct {
	transport.Transport
	tr *tracer
}

func (t *tracedClientTransport) Send(to types.ReplicaID, m types.Message) error {
	if req, ok := m.(*types.ClientRequest); ok && primaryOf(req.Tx.Client) == to {
		t.tr.mark(req.Tx.Client, req.Tx.Seq, func(rt *reqTrace) { first(&rt.cliSend, now()) })
	}
	return t.Transport.Send(to, m)
}

type tracedClientEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e *tracedClientEndpoint) DeliverReplica(from types.ReplicaID, m types.Message) {
	if r, ok := m.(*types.ClientReply); ok && int(from) < nodes {
		e.tr.mark(r.Client, r.Seq, func(rt *reqTrace) { first(&rt.reply[from], now()) })
	}
	e.Endpoint.DeliverReplica(from, m)
}
