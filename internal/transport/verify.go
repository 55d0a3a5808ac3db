package transport

// Asynchronous frame verification.
//
// With authentication enabled, every inbound record costs a MAC or signature
// check. Running those checks on the connection's read goroutine serializes
// crypto behind the socket: one link's verification stalls its own reads, and
// a digital-signature scheme (~2 orders of magnitude more expensive than a
// MAC) caps throughput at one core per link. The verify pool moves the
// checks onto a bounded set of workers shared by all links while keeping the
// guarantee the consensus layer depends on: per-link delivery order.
//
// The pipeline per connection:
//
//	read loop ──task──▶ link.pending (FIFO)──▶ releaser ──▶ Deliver*
//	     │                                        ▲
//	     └────task────▶ pool queue ──▶ worker ────┘ (task.done)
//
// The read loop decodes a frame's messages and copies their tags (the frame
// buffer is pooled; record slices alias it), then enqueues the task on the
// link's pending FIFO *before* the shared pool queue. Workers verify tasks
// in whatever order the pool schedules; the link's releaser goroutine waits
// on each pending task's done channel in FIFO order, so messages reach the
// endpoint exactly in arrival order no matter how verification interleaves.
// Both queues are bounded, so a link that floods faster than the pool
// verifies backpressures its own reader — the kernel's receive window does
// the rest.
//
// Batching falls out of the wire format: a sender under vote load coalesces
// everything queued into one frame, so one task carries up to maxBatchMsgs
// records and the worker hands them to the authenticator's VerifyBatch in a
// single call — the queue drains in frame-sized batches exactly when load is
// highest.
//
// Unauthenticated transports (nil or SchemeNone auth) never build a pool and
// keep the zero-copy inline path in readLoop.

import (
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/obs/flight"
	"repro/internal/types"
)

// verifyTask is one inbound frame staged for verification: the decoded
// messages, their copied tags, and the verdicts. Payload bytes are built by
// the worker into a single arena to keep per-record allocations off the
// steady state.
type verifyTask struct {
	link *inLink
	// msgs are the frame's decoded messages, in wire order.
	msgs []types.Message
	// tags/tagOffs are the records' authenticator tags, concatenated;
	// tag i is tags[tagOffs[i]:tagOffs[i+1]].
	tags    []byte
	tagOffs []int
	// payloads/payloadOffs are the AuthPayload arena, built by the worker.
	payloads    []byte
	payloadOffs []int
	// ok[i] is the verdict for msgs[i].
	ok []bool
	// scratch slices reused by the worker for VerifyBatch calls.
	batchPayloads [][]byte
	batchTags     [][]byte
	batchIdx      []int

	start time.Time
	done  chan struct{}
}

var taskPool = sync.Pool{New: func() any { return new(verifyTask) }}

func newVerifyTask(l *inLink) *verifyTask {
	task := taskPool.Get().(*verifyTask)
	task.link = l
	return task
}

func releaseTask(task *verifyTask) {
	task.link = nil
	task.msgs = task.msgs[:0]
	task.tags = task.tags[:0]
	task.tagOffs = task.tagOffs[:0]
	task.payloads = task.payloads[:0]
	task.payloadOffs = task.payloadOffs[:0]
	task.ok = task.ok[:0]
	task.batchPayloads = task.batchPayloads[:0]
	task.batchTags = task.batchTags[:0]
	task.batchIdx = task.batchIdx[:0]
	task.done = nil
	taskPool.Put(task)
}

// verifyPool is the shared bounded worker pool of one TCP node.
type verifyPool struct {
	t  *TCP
	ch chan *verifyTask
	wg sync.WaitGroup
}

// newVerifyPool starts workers verify workers. Callers gate on the scheme:
// no pool is built for unauthenticated transports.
func newVerifyPool(t *TCP, workers int) *verifyPool {
	p := &verifyPool{t: t, ch: make(chan *verifyTask, verifyQueueDepth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *verifyPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case task := <-p.ch:
			p.run(task)
		case <-p.t.done:
			return
		}
	}
}

// submit stages task for the link's releaser (FIFO first, so order is fixed
// before any worker can finish it), then hands it to the pool. Returns false
// when the transport is shutting down.
func (p *verifyPool) submit(l *inLink, task *verifyTask) bool {
	select {
	case l.pending <- task:
	case <-p.t.done:
		return false
	}
	select {
	case p.ch <- task:
		return true
	case <-p.t.done:
		return false
	}
}

// run verifies every record of one task and signals the link's releaser.
func (p *verifyPool) run(task *verifyTask) {
	t := p.t
	auth := t.cfg.Auth
	party := task.link.party

	// Build the payload arena first, slice after: append may reallocate,
	// which would invalidate slices taken earlier.
	for _, m := range task.msgs {
		task.payloadOffs = append(task.payloadOffs, len(task.payloads))
		task.payloads = m.AuthPayload(task.payloads)
	}
	task.payloadOffs = append(task.payloadOffs, len(task.payloads))

	for i, m := range task.msgs {
		payload := task.payloads[task.payloadOffs[i]:task.payloadOffs[i+1]]
		tag := task.tags[task.tagOffs[i]:task.tagOffs[i+1]]
		if cache := t.cfg.DigestCache; cache != nil {
			if req, isReq := m.(*types.ClientRequest); isReq {
				key := requestCacheKey(party, payload, tag, req)
				if cache.Contains(key) {
					task.ok[i] = true // this exact triple verified before
					continue
				}
				if task.ok[i] = auth.Verify(party, payload, tag); task.ok[i] {
					cache.Add(key)
				}
				continue
			}
		}
		task.batchIdx = append(task.batchIdx, i)
	}

	if ba, isBatch := auth.(crypto.BatchAuthenticator); isBatch && len(task.batchIdx) > 1 {
		for _, i := range task.batchIdx {
			task.batchPayloads = append(task.batchPayloads, task.payloads[task.payloadOffs[i]:task.payloadOffs[i+1]])
			task.batchTags = append(task.batchTags, task.tags[task.tagOffs[i]:task.tagOffs[i+1]])
		}
		verdicts := make([]bool, len(task.batchIdx))
		ba.VerifyBatch(party, task.batchPayloads, task.batchTags, verdicts)
		for j, i := range task.batchIdx {
			task.ok[i] = verdicts[j]
		}
	} else {
		for _, i := range task.batchIdx {
			payload := task.payloads[task.payloadOffs[i]:task.payloadOffs[i+1]]
			tag := task.tags[task.tagOffs[i]:task.tagOffs[i+1]]
			task.ok[i] = auth.Verify(party, payload, tag)
		}
	}

	t.verifiedFrames.Add(1)
	if obs := t.cfg.VerifyObserve; obs != nil {
		obs(time.Since(task.start))
	}
	close(task.done)
}

// requestCacheKey derives the digest-cache key for one verified-or-not
// client request record. The digest binds the sender party, the exact
// authenticated payload, and the tag (length-prefixed so boundaries cannot
// shift), so a hit proves this precise triple passed verification before.
// The request's first transaction names the key; the digest covers them all.
func requestCacheKey(party uint32, payload, tag []byte, req *types.ClientRequest) digestcache.Key {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], party)
	binary.BigEndian.PutUint32(b[4:], uint32(len(payload)))
	h.Write(b[:])
	h.Write(payload)
	h.Write(tag)
	k := digestcache.Key{Client: uint64(req.Txns[0].Client), Seq: req.Txns[0].Seq}
	h.Sum(k.Digest[:0])
	return k
}

// inLink is the verify-pool state of one inbound connection: the FIFO of
// in-flight tasks and the releaser goroutine that delivers them in order.
type inLink struct {
	t        *TCP
	conn     net.Conn
	party    uint32
	isClient bool
	replica  types.ReplicaID
	client   types.ClientID
	pending  chan *verifyTask
}

// sourceID is the link's remote identity for flight event details.
func (l *inLink) sourceID() uint64 {
	if l.isClient {
		return uint64(l.client)
	}
	return uint64(l.replica)
}

// newInLink registers a link with the pool and starts its releaser.
func (t *TCP) newInLink(c net.Conn, hdr wireHeader) *inLink {
	l := &inLink{
		t:        t,
		conn:     c,
		party:    hdr.party(),
		isClient: hdr.isClient,
		replica:  hdr.replica,
		client:   hdr.client,
		pending:  make(chan *verifyTask, verifyQueueDepth),
	}
	t.wgReaders.Add(1)
	go l.release()
	return l
}

// buildTask decodes one frame into a task. Returns (nil, nil) when nothing
// decoded (every record skipped), and an error on a framing desync.
func (l *inLink) buildTask(frame []byte) (*verifyTask, error) {
	task := newVerifyTask(l)
	err := forEachRecord(frame, func(tag, msg []byte) {
		m, derr := types.DecodeMessage(msg)
		if derr != nil {
			l.t.decodeErrs.Add(1)
			return
		}
		task.msgs = append(task.msgs, m)
		task.tagOffs = append(task.tagOffs, len(task.tags))
		task.tags = append(task.tags, tag...) // frame buffer is pooled; keep our own copy
		task.ok = append(task.ok, false)
	})
	task.tagOffs = append(task.tagOffs, len(task.tags))
	if err != nil || len(task.msgs) == 0 {
		releaseTask(task)
		return nil, err
	}
	task.start = time.Now()
	task.done = make(chan struct{})
	return task, nil
}

// release is the link's releaser goroutine: it waits on each staged task in
// FIFO order and delivers its verified messages, preserving per-link arrival
// order regardless of how the pool interleaved the verification. It also
// owns the auth-failure demotion policy: after AuthFailLimit consecutive
// rejected records the connection is closed — an inbound garbage stream
// stops costing verify cycles, and a dialing peer re-establishes through its
// normal reconnect backoff.
func (l *inLink) release() {
	t := l.t
	defer t.wgReaders.Done()
	consecFails := 0
	demoted := false
	for {
		var task *verifyTask
		var ok bool
		select {
		case task, ok = <-l.pending:
			if !ok {
				return // reader closed the link; everything staged was drained
			}
		case <-t.done:
			return
		}
		select {
		case <-task.done:
		case <-t.done:
			return // shutdown: workers may never finish this task
		}
		for i, m := range task.msgs {
			if !task.ok[i] {
				t.authRejects.Add(1)
				t.emit(flight.KAuthFail, 0, l.sourceID())
				consecFails++
				if !demoted && consecFails >= AuthFailLimit {
					demoted = true
					t.authDemotions.Add(1)
					t.emit(flight.KDemote, 0, l.sourceID())
					l.conn.Close() // reader tears the link down; dialer side redials with backoff
				}
				continue
			}
			consecFails = 0
			if demoted {
				continue // past the demotion point nothing more is delivered
			}
			if l.isClient {
				t.ep.DeliverClient(l.client, m)
			} else {
				t.deliverReplica(l.replica, m)
			}
		}
		releaseTask(task)
	}
}
