package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/obs/flight"
	"repro/internal/types"
)

// TCPConfig parameterizes a TCP node.
type TCPConfig struct {
	// Self is the local replica (ignored for clients).
	Self types.ReplicaID
	// SelfClient is the local client identity when IsClient.
	SelfClient types.ClientID
	// IsClient marks a client node (listens on no port, dials replicas).
	IsClient bool
	// Listen is the local listen address (replicas only).
	Listen string
	// Peers maps replica IDs to their dialable addresses.
	Peers map[types.ReplicaID]string
	// Auth authenticates frames; nil disables authentication.
	Auth crypto.Authenticator

	// DigestCache, when set, memoizes verified (party, frame digest, tag)
	// triples from DS client links, so a byte-identical frame (a
	// retransmitted request that travels alone) skips its signature check.
	// Only DS links consult it: a MAC stream's frames never repeat, because
	// each frame's tag is made under its own nonce.
	DigestCache *digestcache.Cache
	// VerifyObserve, when set, receives the check+decode latency of every
	// frame an authenticated link reads (feeds the "verify" stage
	// histogram).
	VerifyObserve func(time.Duration)
	// Flight, when set, receives link lifecycle events (connect, reconnect,
	// demotion, auth failure, overflow drop) attributed to Self. Nil
	// disables flight recording.
	Flight *flight.Recorder
	// Faults, when set, injects link faults (partition drops, per-link
	// delays) at the send and delivery boundaries — see faults.go. The
	// chaos harness shares one matrix across an in-process cluster; nil
	// (production) injects nothing and costs one nil check per message.
	Faults *Faults

	// Link tunings only same-package tests shrink; zero selects the
	// constant named in the comment.
	queueDepth          int           // peerQueueDepth
	writeTimeout        time.Duration // WriteTimeout
	reconnectBackoff    time.Duration // backoffMin
	reconnectBackoffMax time.Duration // backoffMax
	drainTimeout        time.Duration // closeDrain
}

const (
	// WriteTimeout bounds each steady-state frame write. A peer that
	// accepts the connection but stops draining it (paused, partitioned,
	// Byzantine) fails its write within this bound and the link demotes to
	// the drop-while-down policy — so the backpressure a full replica queue
	// exerts on senders is bounded, never a permanent wedge of the
	// consensus event loop.
	WriteTimeout = 10 * time.Second
	// AuthFailLimit demotes an inbound link after this many consecutive
	// frames failed authentication: the connection is closed and the
	// counting peer re-establishes through its reconnect backoff.
	AuthFailLimit = 16

	// peerQueueDepth bounds each per-peer outbound queue. Overflow on a
	// connected peer link blocks the sender (backpressure); while the peer
	// is unreachable messages are dropped and counted.
	peerQueueDepth = 4096
	// clientQueueDepth bounds each per-client reply queue. Overflow drops
	// the reply and counts it — a stalled client never delays anyone
	// else's replies.
	clientQueueDepth = 1024

	maxBatchBytes = 128 << 10 // encoded bytes one write syscall coalesces
	maxBatchMsgs  = 256       // messages one write syscall coalesces
	maxFrameBytes = 64 << 20  // largest accepted inbound frame
	dialTimeout   = 2 * time.Second
	backoffMin    = 50 * time.Millisecond // first redial delay, doubling up to backoffMax
	backoffMax    = time.Second
	closeDrain    = time.Second // how long Close lets writers flush queued messages
)

// ParsePeers parses rccnode and rccclient's -peers flag, a comma-separated
// list of id=host:port entries, into a TCPConfig.Peers map.
func ParsePeers(s string) (map[types.ReplicaID]string, error) {
	peers := make(map[types.ReplicaID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		peers[types.ReplicaID(id)] = kv[1]
	}
	return peers, nil
}

func (c *TCPConfig) defaults() {
	if c.queueDepth <= 0 {
		c.queueDepth = peerQueueDepth
	}
	if c.writeTimeout <= 0 {
		c.writeTimeout = WriteTimeout
	}
	if c.reconnectBackoff <= 0 {
		c.reconnectBackoff = backoffMin
	}
	if c.reconnectBackoffMax <= 0 {
		c.reconnectBackoffMax = backoffMax
	}
	if c.drainTimeout <= 0 {
		c.drainTimeout = closeDrain
	}
}

// TCPStats are the transport's observable counters. All values are
// cumulative since NewTCP.
type TCPStats struct {
	// MsgsSent / BatchesSent count messages written and the frames they
	// were coalesced into; their ratio is the realized batching factor.
	MsgsSent    uint64
	BatchesSent uint64
	// PeerDropped counts replica-link messages discarded while the peer
	// was unreachable (down or in dial backoff).
	PeerDropped uint64
	// ClientDropped counts client replies discarded on queue overflow or
	// after the client's connection died.
	ClientDropped uint64
	// Reconnects counts successful re-dials after a link failure.
	Reconnects uint64
	// BadHeader counts connections refused at the handshake (wrong magic,
	// wire version, or sender kind, or a stream key the authenticator
	// cannot make).
	BadHeader uint64
	// DecodeErrs counts records of authenticated frames that failed to
	// decode and were skipped (a record length past the frame counts once
	// and skips the rest of the frame).
	DecodeErrs uint64
	// EncodeErrs counts outbound messages discarded because they could
	// not be encoded (a message type missing from the codec registry —
	// a local bug, not a peer problem).
	EncodeErrs uint64
	// AuthRejects counts frames dropped whole because their tag was
	// missing or truncated, or did not verify over their records (on a MAC
	// link: at the frame's position in its stream).
	AuthRejects uint64
	// AuthDemotions counts inbound links closed after AuthFailLimit
	// consecutive authentication failures.
	AuthDemotions uint64
	// DigestHits / DigestMisses mirror the configured digest cache's
	// counters (0 when no cache is wired; only DS client links consult it).
	DigestHits   uint64
	DigestMisses uint64
	// FaultDropped counts messages discarded by injected link faults
	// (faults.go); always 0 without a Faults matrix.
	FaultDropped uint64
}

// TCP is a TCP transport node. Send/SendClient enqueue onto bounded
// per-destination queues; writer goroutines encode, batch, write, and
// reconnect. Inbound frames are verified and handed to the endpoint.
type TCP struct {
	cfg      TCPConfig
	ep       Endpoint
	listener net.Listener

	mu          sync.Mutex
	closing     bool
	queues      map[types.ReplicaID]*peerQueue
	clientsByID map[types.ClientID]*connQueue
	conns       map[net.Conn]struct{}

	done chan struct{}
	// closeDeadline (unix nanos, 0 until Close) caps every write deadline
	// once shutdown starts, so no in-flight or drain write can stretch
	// Close past its drain bound.
	closeDeadline atomic.Int64
	wgReaders     sync.WaitGroup
	wgWriters     sync.WaitGroup

	msgsSent      atomic.Uint64
	batchesSent   atomic.Uint64
	peerDropped   atomic.Uint64
	clientDropped atomic.Uint64
	reconnects    atomic.Uint64
	badHeader     atomic.Uint64
	decodeErrs    atomic.Uint64
	encodeErrs    atomic.Uint64
	authRejects   atomic.Uint64
	authDemotions atomic.Uint64
	faultDropped  atomic.Uint64

	// delayCh feeds the delay heap goroutine (faults.go); nil unless a
	// Faults matrix is configured.
	delayCh chan delayedMsg

	// memo shares DS frame signatures between the peer-link writers; nil
	// unless Auth's scheme is DS.
	memo *tagMemo
}

// NewTCP creates a TCP node delivering inbound messages to ep. Replicas
// start listening immediately.
func NewTCP(cfg TCPConfig, ep Endpoint) (*TCP, error) {
	cfg.defaults()
	t := &TCP{
		cfg: cfg, ep: ep,
		queues:      make(map[types.ReplicaID]*peerQueue),
		clientsByID: make(map[types.ClientID]*connQueue),
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
		memo:        newTagMemo(cfg.Auth),
	}
	cp := make(map[types.ReplicaID]string, len(cfg.Peers))
	for k, v := range cfg.Peers {
		cp[k] = v
	}
	t.cfg.Peers = cp
	if cfg.Faults != nil {
		t.delayCh = make(chan delayedMsg, 1024)
		t.wgReaders.Add(1)
		go t.delayLoop()
	}
	if !cfg.IsClient {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.listener = ln
		t.wgReaders.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// SetPeers installs (or replaces) the replica address map. Call before any
// Send — typically after all listeners have bound, when ephemeral ports
// become known. Links already established keep their connection; the new
// address applies from the next (re)dial.
func (t *TCP) SetPeers(peers map[types.ReplicaID]string) {
	cp := make(map[types.ReplicaID]string, len(peers))
	for k, v := range peers {
		cp[k] = v
	}
	t.mu.Lock()
	t.cfg.Peers = cp
	t.mu.Unlock()
}

// Addr returns the bound listen address (replicas only).
func (t *TCP) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// Stats returns a snapshot of the transport's counters.
func (t *TCP) Stats() TCPStats {
	st := TCPStats{
		MsgsSent:      t.msgsSent.Load(),
		BatchesSent:   t.batchesSent.Load(),
		PeerDropped:   t.peerDropped.Load(),
		ClientDropped: t.clientDropped.Load(),
		Reconnects:    t.reconnects.Load(),
		BadHeader:     t.badHeader.Load(),
		DecodeErrs:    t.decodeErrs.Load(),
		EncodeErrs:    t.encodeErrs.Load(),
		AuthRejects:   t.authRejects.Load(),
		AuthDemotions: t.authDemotions.Load(),
		FaultDropped:  t.faultDropped.Load(),
	}
	if c := t.cfg.DigestCache; c != nil {
		cs := c.Stats()
		st.DigestHits, st.DigestMisses = cs.Hits, cs.Misses
	}
	return st
}

// LinkStat is a point-in-time view of one outbound replica link.
type LinkStat struct {
	Peer      types.ReplicaID
	Queued    int  // messages waiting in the link's outbound queue
	Connected bool // writer currently holds a live connection
}

// LinkStats snapshots every outbound replica link, sorted by peer ID —
// queue depths expose where backpressure is building, connected flags
// expose partitions.
func (t *TCP) LinkStats() []LinkStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LinkStat, 0, len(t.queues))
	for id, q := range t.queues {
		out = append(out, LinkStat{Peer: id, Queued: len(q.ch), Connected: q.connected.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// ClientLinks reports the number of connected client links and the total
// messages queued toward clients.
func (t *TCP) ClientLinks() (links, queued int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range t.clientsByID {
		links++
		queued += len(q.ch)
	}
	return links, queued
}

// addConn registers a live connection; during shutdown it refuses so no new
// connection outlives Close.
func (t *TCP) addConn(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *TCP) dropConn(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *TCP) acceptLoop() {
	defer t.wgReaders.Done()
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return
		}
		if !t.addConn(c) {
			c.Close()
			return
		}
		t.wgReaders.Add(1)
		go t.readLoop(c, false)
	}
}

// readLoop reads one connection: stream header first (refusing version
// mismatches), then batched frames. It checks each frame's tag before
// decoding any of its records, drops a frame that fails whole, and delivers
// the rest in arrival order. dialed marks connections this node dialed (a
// client reading replies from a replica).
func (t *TCP) readLoop(c net.Conn, dialed bool) {
	var cq *connQueue
	defer t.wgReaders.Done()
	defer func() {
		// The connection is gone in both directions: stop routing replies
		// to its queue (the writer's own teardown also does this — the
		// read side usually notices death first).
		if cq != nil {
			cq.dead.Store(true)
			t.unregisterClient(cq.client, cq)
			close(cq.quit)
		}
		t.dropConn(c)
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	hdr, err := readHeader(br)
	if err != nil {
		t.badHeader.Add(1)
		return
	}
	if hdr.isClient && !dialed {
		// A client link: replies to this client ride a dedicated bounded
		// queue on the connection's write half.
		cq = newConnQueue(t, c, hdr.client)
		t.mu.Lock()
		if t.closing {
			t.mu.Unlock()
			return
		}
		t.clientsByID[hdr.client] = cq
		t.wgWriters.Add(1)
		t.mu.Unlock()
		go cq.run()
	}
	la, err := newLinkAuth(t.cfg.Auth, t.party(), hdr.party(), true, hdr.salt)
	if err != nil {
		t.badHeader.Add(1)
		return
	}
	if la != nil && la.gcm == nil && hdr.isClient {
		la.cache = t.cfg.DigestCache
	}
	observe := t.cfg.VerifyObserve
	if la == nil {
		observe = nil
	}
	consecFails := 0
	var msgs []types.Message
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(lenb[:]))
		if n <= 0 || n > maxFrameBytes {
			return
		}
		bp := getBuf()
		if cap(*bp) < n {
			*bp = make([]byte, n)
		}
		*bp = (*bp)[:n]
		if _, err := io.ReadFull(br, *bp); err != nil {
			putBuf(bp)
			return
		}
		var start time.Time
		if observe != nil {
			start = time.Now()
		}
		records, tag, ok := openFrame(*bp)
		if la != nil {
			ok = la.checkFrame(records, tag, ok)
		}
		if ok {
			msgs = t.decodeRecords(records, msgs)
		}
		putBuf(bp)
		if observe != nil {
			observe(time.Since(start))
		}
		if !ok {
			consecFails++
			if t.rejectFrame(sourceID(hdr), consecFails) {
				// Demote: a stream of forged frames stops costing verify
				// cycles here; an honest-but-misconfigured dialer returns
				// through its reconnect backoff.
				return
			}
			continue
		}
		consecFails = 0
		for _, m := range msgs {
			if hdr.isClient {
				t.ep.DeliverClient(hdr.client, m)
			} else {
				t.deliverReplica(hdr.replica, m)
			}
		}
		clear(msgs)
		msgs = msgs[:0]
	}
}

// sourceID is the numeric identity of a connection's remote end for flight
// event details: the replica id, or the client id for client links.
func sourceID(hdr wireHeader) uint64 {
	if hdr.isClient {
		return uint64(hdr.client)
	}
	return uint64(hdr.replica)
}

// rejectFrame counts one inbound frame from src that failed authentication,
// the consecFails-th in a row on its link, and reports whether the link must
// now be demoted: exactly once per streak, when the streak reaches
// AuthFailLimit.
func (t *TCP) rejectFrame(src uint64, consecFails int) bool {
	t.authRejects.Add(1)
	t.emit(flight.KAuthFail, 0, src)
	if consecFails != AuthFailLimit {
		return false
	}
	t.authDemotions.Add(1)
	t.emit(flight.KDemote, 0, src)
	return true
}

// decodeRecords appends the messages of an authenticated frame's records to
// msgs. A record that fails to decode, and everything after a record length
// that overruns the frame, is counted in DecodeErrs and skipped.
func (t *TCP) decodeRecords(records []byte, msgs []types.Message) []types.Message {
	err := forEachRecord(records, func(msg []byte) {
		m, err := types.DecodeMessage(msg)
		if err != nil {
			t.decodeErrs.Add(1)
			return
		}
		msgs = append(msgs, m)
	})
	if err != nil {
		t.decodeErrs.Add(1)
	}
	return msgs
}

// emit records a transport flight event attributed to this node.
func (t *TCP) emit(kind flight.Kind, seq, detail uint64) {
	t.cfg.Flight.Record(uint16(t.cfg.Self), flight.SubTransport, kind, 0, 0, seq, detail)
}

// party returns the crypto party this node authenticates as.
func (t *TCP) party() uint32 {
	if t.cfg.IsClient {
		return crypto.ClientPartyID(t.cfg.SelfClient)
	}
	return crypto.PartyID(t.cfg.Self)
}

// newStream starts a stream this node writes to party peer: it draws the
// stream's salt and returns the header that announces it and the frame
// authentication that seals its frames. memo, when set, shares DS
// signatures between the node's peer writers.
func (t *TCP) newStream(peer uint32, memo *tagMemo) ([]byte, *linkAuth, error) {
	salt := newSalt()
	la, err := newLinkAuth(t.cfg.Auth, t.party(), peer, false, salt)
	if la != nil {
		la.memo = memo
	}
	return appendHeader(nil, t.cfg.IsClient, t.cfg.Self, t.cfg.SelfClient, salt), la, err
}

// Send implements Transport: enqueue-only, per-peer queue, backpressure on
// a connected-but-slow peer, drop-with-counter on an unreachable one. A
// fault-cut link drops here, before the queue — a partitioned peer's queue
// must not fill with messages that would all burst out at heal time.
func (t *TCP) Send(to types.ReplicaID, m types.Message) error {
	if !t.cfg.IsClient && t.cfg.Faults.dropped(t.cfg.Self, to) {
		t.faultDropped.Add(1)
		return nil
	}
	q, err := t.peerQueueFor(to)
	if err != nil {
		return err
	}
	return q.enqueue(m)
}

// SendClient implements Transport. Replica-to-client messages ride the
// bounded queue of the connection the client dialed; overflow or a dead
// connection drops the reply (counted) — never blocks, never cascades.
func (t *TCP) SendClient(c types.ClientID, m types.Message) error {
	t.mu.Lock()
	q := t.clientsByID[c]
	t.mu.Unlock()
	if q == nil {
		return fmt.Errorf("transport: client %d not connected", c)
	}
	q.enqueue(m)
	return nil
}

func (t *TCP) peerQueueFor(to types.ReplicaID) (*peerQueue, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return nil, fmt.Errorf("transport: closed")
	}
	if q, ok := t.queues[to]; ok {
		return q, nil
	}
	if _, ok := t.cfg.Peers[to]; !ok {
		return nil, fmt.Errorf("transport: unknown replica %d", to)
	}
	q := &peerQueue{
		t:     t,
		id:    to,
		party: crypto.PartyID(to),
		ch:    make(chan types.Message, t.cfg.queueDepth),
	}
	t.queues[to] = q
	t.memo.addWriter()
	t.wgWriters.Add(1)
	go q.run()
	return q, nil
}

// Close implements Transport: stop accepting work, give every writer up to
// the drain timeout to flush what is queued, then tear the connections down.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return nil
	}
	t.closing = true
	// Bound the drain: a writer blocked on a stalled destination unblocks
	// at this deadline instead of holding Close hostage, and writeFrame
	// caps later deadlines at it. Stored before done closes so no drain
	// can observe a zero deadline.
	deadline := time.Now().Add(t.cfg.drainTimeout)
	t.closeDeadline.Store(deadline.UnixNano())
	close(t.done)
	if t.listener != nil {
		t.listener.Close()
	}
	for c := range t.conns {
		c.SetWriteDeadline(deadline)
	}
	t.mu.Unlock()

	t.wgWriters.Wait()
	// Writers closed their own connections; sweep the rest (inbound
	// replica links have no writer) so the read loops unblock.
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wgReaders.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Outbound queues
// ---------------------------------------------------------------------------

// peerQueue is the outbound queue and writer goroutine of one dialed link
// (replica→replica, or client→replica). The writer owns the connection:
// it dials lazily, redials with exponential backoff after failures, encodes
// messages, coalesces bursts into multi-message frames, and tags each frame
// for the connection's stream.
type peerQueue struct {
	t         *TCP
	id        types.ReplicaID
	party     uint32
	ch        chan types.Message
	connected atomic.Bool
}

// enqueue applies the replica-link overflow policy: backpressure while the
// link is up, drop-with-counter while it is down (the writer is then in
// dial backoff and consensus retransmission owns recovery — blocking the
// event loop on a dead peer would trade liveness for nothing).
func (q *peerQueue) enqueue(m types.Message) error {
	select {
	case q.ch <- m:
		return nil
	default:
	}
	if !q.connected.Load() {
		q.t.peerDropped.Add(1)
		q.t.emit(flight.KOverflowDrop, 1, uint64(q.id))
		return nil
	}
	select {
	case q.ch <- m:
		return nil
	case <-q.t.done:
		return fmt.Errorf("transport: closed")
	}
}

func (q *peerQueue) addr() string {
	q.t.mu.Lock()
	defer q.t.mu.Unlock()
	return q.t.cfg.Peers[q.id]
}

func (q *peerQueue) run() {
	t := q.t
	defer t.wgWriters.Done()
	var conn net.Conn
	var la *linkAuth // conn's stream
	defer func() {
		if conn != nil {
			t.dropConn(conn)
			conn.Close()
		}
	}()
	backoff := t.cfg.reconnectBackoff
	var nextDial time.Time
	everConnected := false
	frame := make([]byte, 0, 4096)

	for {
		var first types.Message
		select {
		case first = <-q.ch:
		case <-t.done:
			if conn != nil {
				t.drainOnClose(conn, la, q.ch, frame)
			}
			return
		}

		count := 0
		frame, count = batchInto(t, frame, q.ch, first)
		if count == 0 {
			continue
		}

		if conn == nil {
			now := time.Now()
			if now.Before(nextDial) {
				t.peerDropped.Add(uint64(count))
				t.emit(flight.KOverflowDrop, uint64(count), uint64(q.id))
				continue
			}
			c, err := net.DialTimeout("tcp", q.addr(), dialTimeout)
			if err != nil {
				nextDial = time.Now().Add(backoff)
				backoff = min(2*backoff, t.cfg.reconnectBackoffMax)
				t.peerDropped.Add(uint64(count))
				continue
			}
			if !t.addConn(c) {
				c.Close()
				return
			}
			hdr, sla, err := t.newStream(q.party, t.memo)
			if err == nil {
				_, err = c.Write(hdr)
			}
			if err != nil {
				t.dropConn(c)
				c.Close()
				nextDial = time.Now().Add(backoff)
				backoff = min(2*backoff, t.cfg.reconnectBackoffMax)
				t.peerDropped.Add(uint64(count))
				continue
			}
			conn, la = c, sla
			q.connected.Store(true)
			backoff = t.cfg.reconnectBackoff
			if everConnected {
				t.reconnects.Add(1)
				t.emit(flight.KReconnect, 0, uint64(q.id))
			} else {
				t.emit(flight.KConnect, 0, uint64(q.id))
			}
			everConnected = true
			if t.cfg.IsClient {
				// Clients read their replies off the dialed connection.
				t.wgReaders.Add(1)
				go t.readLoop(c, true)
			}
		}

		var err error
		if frame, err = t.writeFrame(conn, la, frame, count); err != nil {
			// Write failure OR timeout: the peer is not draining. Demote
			// the link — close, count, redial with backoff — so a peer
			// that wedges mid-connection is handled exactly like a dead
			// one and can only ever stall senders for one WriteTimeout.
			t.dropConn(conn)
			conn.Close()
			conn = nil
			q.connected.Store(false)
			nextDial = time.Now().Add(backoff)
			backoff = min(2*backoff, t.cfg.reconnectBackoffMax)
			t.peerDropped.Add(uint64(count))
			t.emit(flight.KDemote, uint64(count), uint64(q.id))
			continue
		}
	}
}

// writeDeadline is the deadline for a write starting now: WriteTimeout
// ahead, capped at the Close drain deadline once shutdown has started.
func (t *TCP) writeDeadline() time.Time {
	dl := time.Now().Add(t.cfg.writeTimeout)
	if cd := t.closeDeadline.Load(); cd != 0 {
		if c := time.Unix(0, cd); c.Before(dl) {
			dl = c
		}
	}
	return dl
}

// writeFrame seals one batched frame for conn's stream la, writes it under
// the steady-state write timeout and bumps the counters, returning the
// frame's buffer for reuse. An error (including a timeout: the destination
// did not drain) means the connection must be considered failed.
func (t *TCP) writeFrame(conn net.Conn, la *linkAuth, frame []byte, count int) ([]byte, error) {
	frame, err := la.sealFrame(frame)
	if err != nil {
		t.encodeErrs.Add(uint64(count)) // authenticator tag too long: local bug
		return frame, nil
	}
	conn.SetWriteDeadline(t.writeDeadline())
	if _, err := conn.Write(frame); err != nil {
		return frame, err
	}
	t.batchesSent.Add(1)
	t.msgsSent.Add(uint64(count))
	return frame, nil
}

// drainOnClose flushes whatever a queue still holds when the transport
// closes. Once Close has started, every write deadline is capped at the one
// Close-wide drain deadline, so a stalled destination cannot stretch Close
// past its bound.
func (t *TCP) drainOnClose(conn net.Conn, la *linkAuth, ch chan types.Message, frame []byte) {
	for {
		select {
		case m := <-ch:
			var n int
			frame, n = batchInto(t, frame, ch, m)
			if n == 0 {
				continue
			}
			var err error
			if frame, err = t.writeFrame(conn, la, frame, n); err != nil {
				return
			}
		default:
			return
		}
	}
}

// batchInto is the shared frame assembly of both queue kinds: it encodes
// first plus everything else queued right now (up to the batch caps) into
// frame's buffer after a frameLen slot, and returns the unsealed frame and
// its message count.
func batchInto(t *TCP, frame []byte, ch chan types.Message, first types.Message) ([]byte, int) {
	frame = append(frame[:0], 0, 0, 0, 0) // frameLen, patched by sealFrame
	count := 0
	add := func(m types.Message) {
		out, err := appendRecord(frame, m)
		if err != nil {
			t.encodeErrs.Add(1) // unregistered type: local bug, message dropped
			return
		}
		frame = out
		count++
	}
	add(first)
collect:
	for count < maxBatchMsgs && len(frame) < maxBatchBytes {
		select {
		case m := <-ch:
			add(m)
		default:
			break collect
		}
	}
	if count == 0 {
		return frame[:0], 0
	}
	return frame, count
}

// connQueue is the write half of an inbound client connection: the bounded
// reply queue of exactly one client, drained by a dedicated writer.
type connQueue struct {
	t      *TCP
	conn   net.Conn
	client types.ClientID
	party  uint32
	ch     chan types.Message
	// quit wakes an idle writer when the read loop sees the connection
	// die, so disconnected clients do not accumulate sleeping writers.
	quit chan struct{}
	dead atomic.Bool
}

func newConnQueue(t *TCP, c net.Conn, client types.ClientID) *connQueue {
	return &connQueue{
		t: t, conn: c, client: client,
		party: crypto.ClientPartyID(client),
		ch:    make(chan types.Message, clientQueueDepth),
		quit:  make(chan struct{}),
	}
}

// unregisterClient removes a dead client link from the routing map (only
// if it still points at q — a reconnected client's fresh queue must not be
// evicted by its predecessor's teardown), so churning client populations
// do not grow the map and the queues without bound.
func (t *TCP) unregisterClient(c types.ClientID, q *connQueue) {
	t.mu.Lock()
	if t.clientsByID[c] == q {
		delete(t.clientsByID, c)
	}
	t.mu.Unlock()
}

// enqueue applies the client-link overflow policy: never block, drop and
// count when the queue is full or the connection already died.
func (q *connQueue) enqueue(m types.Message) {
	if q.dead.Load() {
		q.t.clientDropped.Add(1)
		return
	}
	select {
	case q.ch <- m:
	default:
		q.t.clientDropped.Add(1)
		q.t.emit(flight.KOverflowDrop, 1, uint64(q.client))
	}
}

func (q *connQueue) run() {
	t := q.t
	defer t.wgWriters.Done()
	defer func() {
		q.dead.Store(true)
		t.unregisterClient(q.client, q)
		t.dropConn(q.conn)
		q.conn.Close()
	}()
	// Announce ourselves first: the client's read loop verifies our wire
	// version before interpreting any frame.
	hdr, la, err := t.newStream(q.party, nil)
	if err == nil {
		_, err = q.conn.Write(hdr)
	}
	if err != nil {
		return
	}
	frame := make([]byte, 0, 4096)
	for {
		var first types.Message
		select {
		case first = <-q.ch:
		case <-q.quit:
			return
		case <-t.done:
			t.drainOnClose(q.conn, la, q.ch, frame)
			return
		}
		// A reply frame is addressed to this one client and never repeats
		// another writer's bytes, so its stream does not use the tag memo.
		count := 0
		frame, count = batchInto(t, frame, q.ch, first)
		if count == 0 {
			continue
		}
		if frame, err = t.writeFrame(q.conn, la, frame, count); err != nil {
			t.clientDropped.Add(uint64(count))
			return
		}
	}
}
