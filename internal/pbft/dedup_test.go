package pbft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sm"
	"repro/internal/types"
)

// refDedup is the reference model of one instance's client dedup, built
// from the structures the per-client records replaced: a (client, seq) set
// of queued or in-flight transactions, the delivered and synced floor
// maps, and the queue in arrival order (stale entries included). It adds
// one rule the set never had: the seq window's refusal (see refused).
type refDedup struct {
	live    map[txKey]struct{}
	lastSeq map[types.ClientID]uint64
	syncSeq map[types.ClientID]uint64
	// anchor is the lowest 64-seq word of a seq accepted since the client
	// last had no live seq.
	anchor map[types.ClientID]uint64
	queue  []txKey
}

func newRefDedup() *refDedup {
	return &refDedup{
		live:    make(map[txKey]struct{}),
		lastSeq: make(map[types.ClientID]uint64),
		syncSeq: make(map[types.ClientID]uint64),
		anchor:  make(map[types.ClientID]uint64),
	}
}

func (r *refDedup) floor(c types.ClientID) uint64 { return max(r.lastSeq[c], r.syncSeq[c]) }

func (r *refDedup) isLive(k txKey) bool {
	_, live := r.live[k]
	return live && k.s > r.floor(k.c)
}

// window returns the 64-seq words [base, top] client c's seq window spans:
// from its anchor, or the word holding floor+1 once the floor passes the
// anchor, to the word of its highest live seq. ok is false when c has no
// live seq.
func (r *refDedup) window(c types.ClientID) (base, top uint64, ok bool) {
	for k := range r.live {
		if k.c == c && r.isLive(k) {
			top, ok = max(top, k.s>>6), true
		}
	}
	return max(r.anchor[c], (r.floor(c)+1)>>6), top, ok
}

// refused reports whether the instance refuses seq s of client c, which is
// above c's floor and not live: s would widen c's window to windowWords
// words (2^20 seqs) or more. A client with no live seq is never refused.
func (r *refDedup) refused(c types.ClientID, s uint64) bool {
	base, top, ok := r.window(c)
	w := s >> 6
	return ok && max(top, w)-min(base, w) >= windowWords
}

// request returns how many of txns the instance must accept and how many
// it must refuse for their seq window.
func (r *refDedup) request(txns []types.Transaction) (accepted, refused int) {
	for _, tx := range txns {
		k := txKey{tx.Client, tx.Seq}
		if _, dup := r.live[k]; tx.IsNoOp() || tx.Seq <= r.floor(tx.Client) || dup {
			continue
		}
		if r.refused(tx.Client, tx.Seq) {
			refused++
			continue
		}
		if _, _, ok := r.window(tx.Client); ok {
			r.anchor[tx.Client] = min(r.anchor[tx.Client], tx.Seq>>6)
		} else {
			r.anchor[tx.Client] = tx.Seq >> 6
		}
		r.live[k] = struct{}{}
		r.queue = append(r.queue, k)
		accepted++
	}
	return accepted, refused
}

// take pops up to max live transactions from the queue front.
func (r *refDedup) take(max int) []txKey {
	var out []txKey
	i := 0
	for ; i < len(r.queue) && len(out) < max; i++ {
		if r.isLive(r.queue[i]) {
			out = append(out, r.queue[i])
		}
	}
	r.queue = r.queue[i:]
	return out
}

func (r *refDedup) deliver(b *types.Batch) {
	for _, tx := range b.Txns {
		if tx.IsNoOp() {
			continue
		}
		delete(r.live, txKey{tx.Client, tx.Seq})
		if tx.Seq > r.lastSeq[tx.Client] {
			r.lastSeq[tx.Client] = tx.Seq
		}
	}
}

// requeue returns a voided batch's live transactions that are not queued
// to the back of the queue.
func (r *refDedup) requeue(b *types.Batch) {
	queued := make(map[txKey]struct{})
	for _, k := range r.queue {
		queued[k] = struct{}{}
	}
	for _, tx := range b.Txns {
		k := txKey{tx.Client, tx.Seq}
		if _, in := queued[k]; tx.IsNoOp() || !r.isLive(k) || in {
			continue
		}
		r.queue = append(r.queue, k)
		queued[k] = struct{}{}
	}
}

func maxMerge(dst, src map[types.ClientID]uint64) {
	for c, s := range src {
		if s > dst[c] {
			dst[c] = s
		}
	}
}

// seqMap is the sync point's dedup map suffix for lastSeq: a u32 count
// and (client u32, seq u64) pairs sorted by client.
func (r *refDedup) seqMap() []byte {
	clients := make([]types.ClientID, 0, len(r.lastSeq))
	for c := range r.lastSeq {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint64(buf, r.lastSeq[c])
	}
	return buf
}

// syncPointBlob builds a v1 sync point at frontier deliver carrying seqs.
func syncPointBlob(deliver types.Round, seqs map[types.ClientID]uint64) []byte {
	ref := &refDedup{lastSeq: seqs}
	buf := []byte{syncPointV1}
	buf = binary.BigEndian.AppendUint64(buf, 0)
	buf = binary.BigEndian.AppendUint64(buf, uint64(deliver))
	buf = binary.BigEndian.AppendUint64(buf, 0)
	buf = append(buf, make([]byte, 32)...)
	return append(buf, ref.seqMap()...)
}

// TestDedupMatchesReferenceModel drives a primary and a backup through
// seeded random steps over three clients — in-order, out-of-order and
// duplicate seqs, retransmits of delivered and in-flight seqs, seqs near
// the far edge of the seq window, partial proposals, deliveries, voided
// rounds with requeue, MergeDeliveredSeqs and InstallSyncPoint — and after
// every step compares each instance with the reference model: how many
// transactions it accepted and refused, the order its proposals take them
// in, the live part of its queue, and its SyncPoint dedup map.
func TestDedupMatchesReferenceModel(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 20; seed++ {
		refused += runDedupModel(t, seed, 600)
	}
	if refused == 0 {
		t.Fatal("no seed reached the seq window's refusal")
	}
}

// FuzzDedupModel runs the reference-model comparison of
// TestDedupMatchesReferenceModel from fuzzed seeds and step counts.
//
//	go test -run '^$' -fuzz '^FuzzDedupModel$' -fuzztime 20s ./internal/pbft
func FuzzDedupModel(f *testing.F) {
	f.Add(int64(1), uint16(600))
	f.Add(int64(7), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		runDedupModel(t, seed, int(steps%4096))
	})
}

// runDedupModel runs steps seeded random steps against the reference model
// and returns how many transactions the instances refused for their seq
// window.
func runDedupModel(t *testing.T, seed int64, steps int) int {
	rng := rand.New(rand.NewSource(seed))
	const batchSize = 4
	type node struct {
		p   *Instance
		env *recEnv
		ref *refDedup
		met *obs.NodeMetrics
	}
	nodes := make([]*node, 2)
	for i := range nodes {
		met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 0)
		n := &node{
			p:   New(Config{Primary: 0, FixedPrimary: true, Window: 8, BatchSize: batchSize, Metrics: met}),
			env: newRecEnv(types.ReplicaID(i)),
			ref: newRefDedup(),
			met: met,
		}
		n.p.Start(n.env)
		nodes[i] = n
	}
	primary := nodes[0]
	var inflight []*types.PrePrepare // proposed, not delivered or voided, in round order
	nextSeq := map[types.ClientID]uint64{1: 1, 2: 1, 3: 1}

	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	// drain hands every new proposal of the primary to both instances,
	// checking it against the reference's take.
	drain := func(step int) {
		t.Helper()
		for len(primary.env.props) > 0 {
			pp := primary.env.props[0]
			primary.env.props = primary.env.props[1:]
			want := primary.ref.take(batchSize)
			if len(want) != pp.Batch.Len() {
				fail(step, "round %d proposes %d txns, reference takes %v", pp.Round, pp.Batch.Len(), want)
			}
			for i, k := range want {
				if tx := pp.Batch.Txns[i]; tx.Client != k.c || tx.Seq != k.s {
					fail(step, "round %d txn %d is (%d,%d), reference takes (%d,%d)", pp.Round, i, tx.Client, tx.Seq, k.c, k.s)
				}
			}
			inflight = append(inflight, pp)
			for _, n := range nodes {
				n.p.OnMessage(sm.FromReplica(0), pp)
			}
		}
	}
	randomSeq := func(c types.ClientID) uint64 {
		if rng.Intn(40) == 0 { // near the far edge of the window; the client jumps there
			s := nextSeq[c] + 1<<20 - 128 + uint64(rng.Intn(256))
			nextSeq[c] = s + 1
			return s
		}
		switch rng.Intn(5) {
		case 0, 1: // in order
			s := nextSeq[c]
			nextSeq[c]++
			return s
		case 2: // out of order: ahead of the next in-order seq
			return nextSeq[c] + uint64(rng.Intn(6))
		case 3: // duplicate, delivered or in flight
			return uint64(rng.Intn(int(nextSeq[c]) + 1))
		default: // retransmit of something still live
			var live []uint64
			for k := range primary.ref.live {
				if k.c == c {
					live = append(live, k.s)
				}
			}
			if len(live) == 0 {
				return nextSeq[c]
			}
			sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
			return live[rng.Intn(len(live))]
		}
	}
	randomSeqs := func() map[types.ClientID]uint64 {
		m := make(map[types.ClientID]uint64)
		for c := types.ClientID(1); c <= 3; c++ {
			if rng.Intn(2) == 0 {
				m[c] = uint64(rng.Intn(int(nextSeq[c]) + 3))
			}
		}
		return m
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 60: // a client request, to both or to one instance
			c := types.ClientID(1 + rng.Intn(3))
			txns := make([]types.Transaction, 1+rng.Intn(3))
			for i := range txns {
				txns[i] = types.Transaction{Client: c, Seq: randomSeq(c), Op: []byte{byte(i)}}
			}
			if rng.Intn(8) == 0 {
				txns = append(txns, types.NoOp())
			}
			to := nodes
			if op >= 54 {
				to = nodes[op%2 : op%2+1]
			}
			for _, n := range to {
				before, refusedBefore := n.met.Requests.Value(), n.met.SeqRefused.Value()
				want, wantRefused := n.ref.request(txns)
				n.p.OnMessage(sm.FromClient(c), types.NewClientRequest(0, txns...))
				if got := int(n.met.Requests.Value() - before); got != want {
					fail(step, "replica %d accepted %d of %v, reference %d", n.env.id, got, txns, want)
				}
				if got := int(n.met.SeqRefused.Value() - refusedBefore); got != wantRefused {
					fail(step, "replica %d refused %d of %v, reference %d", n.env.id, got, txns, wantRefused)
				}
				drain(step)
			}
		case op < 70: // partial batch
			primary.p.ProposePending()
			drain(step)
		case op < 86: // deliver the lowest in-flight round
			if len(inflight) == 0 {
				continue
			}
			pp := inflight[0]
			inflight = inflight[1:]
			for _, n := range nodes {
				n.ref.deliver(pp.Batch)
				n.p.AdoptDecision(sm.Decision{Round: pp.Round, Digest: pp.Digest, Batch: pp.Batch})
				drain(step)
			}
		case op < 92: // RCC voids the next round; its transactions requeue
			target := primary.p.Delivered() + 1
			if len(inflight) > 0 && inflight[0].Round+1 == target {
				for _, n := range nodes {
					n.ref.requeue(inflight[0].Batch)
				}
				inflight = inflight[1:]
			}
			for _, n := range nodes {
				n.p.SkipTo(target)
				n.p.ResumeAt(target)
				drain(step)
			}
		case op < 96: // RCC pushes down composite floors
			seqs := randomSeqs()
			for _, n := range nodes {
				maxMerge(n.ref.syncSeq, seqs)
				n.p.MergeDeliveredSeqs(seqs)
				drain(step)
			}
		default: // a state-transfer install, at or past the frontier
			deliver := primary.p.Delivered()
			if rng.Intn(2) == 0 {
				deliver = primary.p.NextProposeRound() + types.Round(rng.Intn(3))
			}
			seqs := randomSeqs()
			blob := syncPointBlob(deliver, seqs)
			for len(inflight) > 0 && inflight[0].Round < deliver {
				inflight = inflight[1:] // dropped with the rounds below the frontier
			}
			for _, n := range nodes {
				maxMerge(n.ref.lastSeq, seqs)
				if err := n.p.InstallSyncPoint(blob); err != nil {
					fail(step, "install: %v", err)
				}
				drain(step)
			}
		}
		for _, n := range nodes {
			if got, want := n.p.SyncPoint()[syncPointLen:], n.ref.seqMap(); !bytes.Equal(got, want) {
				fail(step, "replica %d sync point dedup map %x, reference %x", n.env.id, got, want)
			}
			// The live part of the queue, in order: what the instance
			// would propose next, and what a backup keeps waiting on.
			var got, want []txKey
			for _, tx := range n.p.pending {
				if k := (txKey{tx.Client, tx.Seq}); n.ref.isLive(k) {
					got = append(got, k)
				}
			}
			for _, k := range n.ref.queue {
				if n.ref.isLive(k) {
					want = append(want, k)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail(step, "replica %d queues %v, reference %v", n.env.id, got, want)
			}
			// The live sets themselves, queued or in flight.
			for c := types.ClientID(1); c <= 3; c++ {
				live := 0
				if cs := n.p.clients[c]; cs != nil {
					live = cs.live.n
				}
				want := 0
				for k := range n.ref.live {
					if k.c == c && n.ref.isLive(k) {
						want++
						if !n.p.clients[c].isLive(k.s) {
							fail(step, "replica %d lost live seq %d of client %d", n.env.id, k.s, c)
						}
					}
				}
				if live != want {
					fail(step, "replica %d holds %d live seqs of client %d, reference %d", n.env.id, live, c, want)
				}
			}
		}
	}
	refused := 0
	for _, n := range nodes {
		refused += int(n.met.SeqRefused.Value())
	}
	return refused
}

// TestDescendingSeqsStayCheap: a client that sends its seqs in descending
// order costs O(1) per transaction — 100 000 of them are accepted,
// proposed in arrival order and delivered in the test's ordinary time.
func TestDescendingSeqsStayCheap(t *testing.T) {
	const total = 100000
	env := newRecEnv(0)
	p := New(Config{Primary: 0, FixedPrimary: true, Window: total, BatchSize: 100})
	p.Start(env)
	for s := uint64(total); s >= 1; s-- {
		p.OnMessage(sm.FromClient(1), types.NewClientRequest(0, types.Transaction{Client: 1, Seq: s, Op: []byte{1}}))
	}
	if len(env.props) != total/100 {
		t.Fatalf("%d proposals, want %d", len(env.props), total/100)
	}
	want := uint64(total)
	for _, pp := range env.props {
		for _, tx := range pp.Batch.Txns {
			if tx.Seq != want {
				t.Fatalf("proposed seq %d, want %d", tx.Seq, want)
			}
			want--
		}
		p.AdoptDecision(sm.Decision{Round: pp.Round, Digest: pp.Digest, Batch: pp.Batch})
	}
	if p.Delivered() != total/100+1 {
		t.Fatalf("delivered up to %d", p.Delivered())
	}
	// Every seq is now below the floor: a retransmit is refused.
	p.OnMessage(sm.FromClient(1), types.NewClientRequest(0, types.Transaction{Client: 1, Seq: 5, Op: []byte{1}}))
	if p.Pending() != 0 {
		t.Fatalf("retransmit of a delivered seq queued (%d pending)", p.Pending())
	}
}
