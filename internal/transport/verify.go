package transport

// Asynchronous frame verification.
//
// With authentication enabled, every inbound frame costs one MAC or
// signature check over its record bytes. Running those checks on the
// connection's read goroutine serializes crypto behind the socket: one link's
// verification stalls its own reads, and a digital-signature scheme (~2
// orders of magnitude more expensive than a MAC) caps throughput at one core
// per link. The verify pool moves the checks onto a bounded set of workers
// shared by all links while keeping the guarantee the consensus layer
// depends on: per-link delivery order.
//
// The pipeline per connection:
//
//	read loop ──task──▶ link.pending (FIFO)──▶ releaser ──▶ Deliver*
//	     │                                        ▲
//	     └────task────▶ pool queue ──▶ worker ────┘ (task.done)
//
// The read loop only reads: it hands the raw frame buffer to a task and
// enqueues the task on the link's pending FIFO *before* the shared pool
// queue. A worker verifies the frame's one tag against its record bytes and,
// only if the tag holds, decodes the records, so no unauthenticated byte
// reaches the message decoder. Workers finish tasks in whatever order the pool
// schedules; the link's releaser goroutine waits on each pending task's done
// channel in FIFO order, so messages reach the endpoint exactly in arrival
// order no matter how verification interleaves. Both queues are bounded, so
// a link that floods faster than the pool verifies backpressures its own
// reader — the kernel's receive window does the rest.
//
// Unauthenticated transports (nil or SchemeNone auth) never build a pool and
// keep the inline path in readLoop.

import (
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/crypto/digestcache"
	"repro/internal/types"
)

// verifyTask is one inbound frame staged for verification: the raw frame
// until a worker has checked it, then the verdict and the decoded messages.
type verifyTask struct {
	link *inLink
	// buf holds the frame (the bytes after frameLen); the worker returns it
	// to the pool once it has decoded the records.
	buf *[]byte
	// ok is the frame's verdict; msgs are its decoded messages, in wire
	// order, set only when ok.
	ok   bool
	msgs []types.Message

	start time.Time
	done  chan struct{}
}

var taskPool = sync.Pool{New: func() any { return new(verifyTask) }}

func releaseTask(task *verifyTask) {
	task.link = nil
	task.ok = false
	clear(task.msgs)
	task.msgs = task.msgs[:0]
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

// run verifies one frame, decodes it if the tag holds, and signals the
// link's releaser.
func (p *verifyPool) run(task *verifyTask) {
	t := p.t
	l := task.link
	records, tag, ok := openFrame(*task.buf)
	if ok {
		ok = t.verifyFrame(l.party, l.isClient, records, tag)
	}
	if task.ok = ok; ok {
		task.msgs = t.decodeRecords(records, task.msgs)
	}
	putBuf(task.buf)
	task.buf = nil

	t.verifiedFrames.Add(1)
	if obs := t.cfg.VerifyObserve; obs != nil {
		obs(time.Since(task.start))
	}
	close(task.done)
}

// verifyFrame checks one frame's tag against its record bytes. Frames from
// client links consult the digest cache, when one is wired: a retransmitted
// request that travels alone repeats its frame byte for byte, while replica
// frames coalesce votes that never repeat.
func (t *TCP) verifyFrame(party uint32, fromClient bool, records, tag []byte) bool {
	auth := t.cfg.Auth
	cache := t.cfg.DigestCache
	if cache == nil || !fromClient {
		return auth.Verify(party, records, tag)
	}
	key := frameCacheKey(party, records, tag)
	if cache.Contains(key) {
		return true // this exact triple verified before
	}
	ok := auth.Verify(party, records, tag)
	if ok {
		cache.Add(key)
	}
	return ok
}

// frameCacheKey derives the digest-cache key of one frame. The digest binds
// the sender party, the exact record bytes, and the tag (length-prefixed so
// boundaries cannot shift), so a hit proves this precise triple passed
// verification before.
func frameCacheKey(party uint32, records, tag []byte) digestcache.Key {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], party)
	binary.BigEndian.PutUint32(b[4:], uint32(len(records)))
	h.Write(b[:])
	h.Write(records)
	h.Write(tag)
	var k digestcache.Key
	h.Sum(k[:0])
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

// newTask stages the frame in buf for verification; the task owns buf from
// here on.
func (l *inLink) newTask(buf *[]byte) *verifyTask {
	task := taskPool.Get().(*verifyTask)
	task.link = l
	task.buf = buf
	task.start = time.Now()
	task.done = make(chan struct{})
	return task
}

// release is the link's releaser goroutine: it waits on each staged task in
// FIFO order and delivers its verified messages, preserving per-link arrival
// order regardless of how the pool interleaved the verification. It also
// owns the auth-failure demotion policy: after AuthFailLimit consecutive
// rejected frames the connection is closed — an inbound garbage stream
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
		switch {
		case !task.ok:
			consecFails++
			if t.rejectFrame(l.sourceID(), consecFails) {
				demoted = true
				l.conn.Close() // reader tears the link down; dialer side redials with backoff
			}
		case !demoted: // past the demotion point nothing more is delivered
			consecFails = 0
			for _, m := range task.msgs {
				if l.isClient {
					t.ep.DeliverClient(l.client, m)
				} else {
					t.deliverReplica(l.replica, m)
				}
			}
		}
		releaseTask(task)
	}
}
