package repro

// Benchmarks of the program's own code paths: Fig. 6 and Fig. 10 on the real
// state machines, §IV's permutation ordering, simulated RCC rounds, and the
// journal, codec, transport, observability, execution, authentication,
// client-reply and backup-batch hot paths that CI gates against
// BENCH_baseline.json:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func BenchmarkFig6OrderingAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.Fig6(); len(t.Rows) != 4 {
			b.Fatal("fig6 rows")
		}
	}
}

func BenchmarkFig10FailureTimeline(b *testing.B) {
	cfg := bench.DefaultFig10()
	cfg.Horizon = 30 * time.Second // trimmed for benchmark iterations
	cfg.CrashP2At = 20 * time.Second
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPermutationOrdering measures §IV's f_S permutation selection for
// the paper's largest deployment (m=91 instances per round).
func BenchmarkPermutationOrdering(b *testing.B) {
	digests := make([]types.Digest, 91)
	for i := range digests {
		digests[i] = types.Hash([]byte{byte(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rcc.ExecutionOrder(digests, true)
	}
}

// BenchmarkSimnetRCCRound measures full protocol rounds (4 replicas, all
// four instances deciding and executing) on the discrete-event simulator.
func BenchmarkSimnetRCCRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := simnet.New(simnet.Config{N: 4, Latency: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		reps := make([]*rcc.Replica, 4)
		for j := 0; j < 4; j++ {
			reps[j] = rcc.New(rcc.Config{BatchSize: 1, Window: 4})
			net.SetMachine(types.ReplicaID(j), reps[j])
		}
		net.Start()
		for c := types.ClientID(1); c <= 4; c++ {
			tx := types.Transaction{Client: c, Seq: 1, Op: []byte{byte(c)}}
			req := types.NewClientRequest(0, tx)
			for r := 0; r < 4; r++ {
				node := net.Node(types.ReplicaID(r))
				net.Schedule(0, func() { node.Machine().OnMessage(sm.FromClient(tx.Client), req) })
			}
		}
		net.Run(time.Second)
		if reps[0].RoundsExecuted() == 0 {
			b.Fatal("no rounds executed")
		}
	}
}

// BenchmarkAsyncJournal measures the replica commit path — ONE sequential
// appender, the event loop's situation — through the durable ledger: blocks
// are handed to the pipelined committer and only the completion callbacks
// wait, so in-flight blocks share commit points (records/fsync shows how
// many). Every block is durable before the timer stops.
func BenchmarkAsyncJournal(b *testing.B) {
	for _, size := range []struct {
		name string
		txns int
	}{
		{"block=1txn", 1},
		{"block=100txn", 100},
	} {
		mkBatch := func(seq uint64) *types.Batch {
			txns := make([]types.Transaction, size.txns)
			for i := range txns {
				txns[i] = types.Transaction{
					Client: types.ClientID(i%16 + 1), Seq: seq,
					Op: []byte(fmt.Sprintf("op-%d-%d", seq, i)),
				}
			}
			return &types.Batch{Txns: txns}
		}
		b.Run(size.name+"/async", func(b *testing.B) {
			d, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			state := types.Hash([]byte("state"))
			var completed atomic.Uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				batch := mkBatch(seq)
				proof := ledger.Proof{Round: types.Round(seq), Digest: batch.Digest()}
				d.AppendAsync(batch, proof, state, func(lsn uint64, err error) {
					if err != nil {
						b.Error(err) // still counts below: the wait must terminate
					}
					completed.Add(1)
				})
			}
			// Wait for every block's commit point.
			for completed.Load() < uint64(b.N) {
				runtime.Gosched()
			}
			b.StopTimer()
			if appends, syncs := d.WAL().Stats(); syncs > 0 {
				b.ReportMetric(float64(appends)/float64(syncs), "records/fsync")
			}
		})
	}
}

// netVote returns a 250B-class consensus vote, the most common message on
// the wire.
func netVote() types.Message {
	return types.NewPrepare(1, 2, 3, 4, types.Hash([]byte("vote")))
}

// netPrePrepare returns a proposal carrying a txns-transaction batch
// (txns=100 is the paper's standard batch).
func netPrePrepare(txns int) types.Message {
	ts := make([]types.Transaction, txns)
	for i := range ts {
		ts[i] = types.Transaction{
			Client: types.ClientID(i%16 + 1),
			Seq:    uint64(i + 1),
			Op:     fmt.Appendf(nil, "op-%04d-payload-padding-to-54-bytes-of-wire", i),
		}
	}
	b := &types.Batch{Txns: ts}
	return &types.PrePrepare{
		Header: types.Header{Inst: 1},
		View:   1, Round: 7, Digest: b.Digest(), Batch: b,
	}
}

// BenchmarkCodec prices the registry-based binary codec (internal/types) on
// the two message shapes that dominate the wire: a 250B-class consensus vote
// and a 100-transaction proposal. Each op is one marshal + one unmarshal,
// appending into a reused buffer — the transport's pooled-buffer situation.
func BenchmarkCodec(b *testing.B) {
	for _, m := range []struct {
		name string
		msg  types.Message
	}{
		{"vote", netVote()},
		{"preprepare100", netPrePrepare(100)},
	} {
		b.Run(m.name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 16<<10)
			var encoded int
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = types.AppendMessage(buf[:0], m.msg)
				if err != nil {
					b.Fatal(err)
				}
				encoded = len(buf)
				if _, err := types.DecodeMessage(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(encoded), "wire_B")
		})
	}
}

// discardEndpoint drops everything a receiver transport delivers.
type discardEndpoint struct{}

func (discardEndpoint) DeliverReplica(types.ReplicaID, types.Message) {}
func (discardEndpoint) DeliverClient(types.ClientID, types.Message)   {}

// loopbackPeers is how many discarding receivers dialLoopbackPeers sets up:
// replicas 1..loopbackPeers, one broadcast's worth at n=4.
const loopbackPeers = 3

// dialLoopbackPeers returns replica 0's transport linked over loopback TCP
// to loopbackPeers discarding receivers, every link connected; everything
// closes when b's current run ends. Messages enqueued before a link's first
// dial completes fall into the drop-while-down policy, which would
// invalidate a measurement, so the links are warmed with exactly ONE vote
// each: aggregate MsgsSent reaching loopbackPeers proves every link
// connected and wrote (a failed dial drops its message, the total never
// arrives, and the bounded wait fails loudly instead of hanging CI). auth,
// when set, keys every party's links (nil: unauthenticated).
func dialLoopbackPeers(b *testing.B, auth func(party uint32) crypto.Authenticator) *transport.TCP {
	b.Helper()
	keyed := func(id types.ReplicaID) crypto.Authenticator {
		if auth == nil {
			return nil
		}
		return auth(crypto.PartyID(id))
	}
	peerMap := make(map[types.ReplicaID]string)
	for id := types.ReplicaID(1); id <= loopbackPeers; id++ {
		r, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: "127.0.0.1:0", Auth: keyed(id)}, discardEndpoint{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { r.Close() })
		peerMap[id] = r.Addr()
	}
	t0, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: peerMap, Auth: keyed(0),
	}, discardEndpoint{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { t0.Close() })
	for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
		if err := t0.Send(p, netVote()); err != nil {
			b.Fatal(err)
		}
	}
	warmDeadline := time.Now().Add(10 * time.Second)
	for t0.Stats().MsgsSent < loopbackPeers {
		if time.Now().After(warmDeadline) {
			b.Fatalf("warmup stalled: %+v", t0.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return t0
}

// BenchmarkBroadcast measures the cost ONE broadcast (send to 3 peers over
// real loopback TCP) charges the calling goroutine — the consensus event
// loop's per-send bill: enqueue onto per-peer outbound queues; writer
// goroutines encode with the binary codec, coalesce bursts into
// multi-message frames, and write off the caller's back. Sustained
// enqueueing is bounded by writer throughput (backpressure), so the number
// is honest steady-state cost, not just a channel send. The case names are
// the baseline rows' (BENCH_baseline.json). The ds case signs every frame
// with ED25519 and reports the signatures made per broadcast: writers whose
// frames hold the same bytes share one signature, so the figure falls below
// the 3 a per-peer signer pays once frames repeat across links. It encodes
// this machine's scheduling and is not a baseline row.
func BenchmarkBroadcast(b *testing.B) {
	for _, m := range []struct {
		name string
		msg  types.Message
	}{
		{"vote/async", netVote()},
		{"preprepare100/enqueue", netPrePrepare(100)},
	} {
		b.Run(m.name, func(b *testing.B) {
			t0 := dialLoopbackPeers(b, nil)
			dropped0 := t0.Stats().PeerDropped
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
					if err := t0.Send(p, m.msg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := t0.Stats()
			if st.BatchesSent > 0 {
				b.ReportMetric(float64(st.MsgsSent)/float64(st.BatchesSent), "msgs/frame")
			}
			if st.PeerDropped > dropped0 {
				b.Errorf("dropped %d messages with healthy peers", st.PeerDropped-dropped0)
			}
		})
	}
	b.Run("preprepare100/ds", func(b *testing.B) {
		secret := []byte("bench-broadcast-secret")
		signer := &tagCounter{Authenticator: crypto.NewDSDev(crypto.PartyID(0), secret)}
		t0 := dialLoopbackPeers(b, func(p uint32) crypto.Authenticator {
			if p == crypto.PartyID(0) {
				return signer
			}
			return crypto.NewDSDev(p, secret)
		})
		base := netPrePrepare(100).(*types.PrePrepare)
		sent0, tags0 := t0.Stats().MsgsSent, signer.tags.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A distinct round per broadcast: frames of one repeated
			// message would repeat across time, not only across links.
			msg := *base
			msg.Round = types.Round(i)
			for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
				if err := t0.Send(p, &msg); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Count the signatures of every frame this loop queued.
		for deadline := time.Now().Add(10 * time.Second); t0.Stats().MsgsSent-sent0 < uint64(b.N*loopbackPeers) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		st := t0.Stats()
		b.ReportMetric(float64(signer.tags.Load()-tags0)/float64(b.N), "tags/bcast")
		b.ReportMetric(float64(st.MsgsSent)/float64(st.BatchesSent), "msgs/frame")
	})
}

// tagCounter counts the Tag calls of the authenticator it wraps and keeps
// its scheme, so the transport still shares its DS tags.
type tagCounter struct {
	crypto.Authenticator
	tags atomic.Int64
}

func (a *tagCounter) Tag(to uint32, payload []byte) []byte {
	a.tags.Add(1)
	return a.Authenticator.Tag(to, payload)
}

// ---------------------------------------------------------------------------
// Observability (internal/obs)
// ---------------------------------------------------------------------------

// BenchmarkObsInstruments prices the individual hot-path instruments: one
// counter increment, one histogram observation, and one lifecycle sampling
// check for an unsampled transaction (the common case — 63 of 64 requests
// take only this branch). All must be allocation-free.
func BenchmarkObsInstruments(b *testing.B) {
	met := obs.NewNodeMetrics(obs.NewRegistry(), 4096, 64)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			met.Requests.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			met.ObserveStage(obs.StageConsensus, time.Duration(i)%time.Second)
		}
	})
	b.Run("trace-unsampled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Client 1 seq 1 hashes outside the 1-in-64 sample; the call is
			// the pure rejection path.
			met.Trace(0, flight.SubPBFT, flight.KArrive, 0, 1, 1)
		}
	})
}

// BenchmarkObsOverhead measures what live instrumentation charges the two
// paths the observability layer touches most: broadcasting a consensus vote
// (the event loop's per-decision bill) and committing a block through the
// async journal. Each path runs with the identical call structure against a
// no-op sink (zero NodeMetrics — every instrument nil) and a live registry;
// scripts/benchgate holds live within 5% of nop in CI.
func BenchmarkObsOverhead(b *testing.B) {
	variants := []struct {
		name string
		met  *obs.NodeMetrics
	}{
		{"nop", &obs.NodeMetrics{}},
		{"live", obs.NewNodeMetrics(obs.NewRegistry(), 4096, 64)},
	}

	for _, v := range variants {
		met := v.met
		b.Run("vote-broadcast/"+v.name, func(b *testing.B) {
			t0 := dialLoopbackPeers(b, nil)
			vote := netVote()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The instrumentation a decided round charges the event
				// loop, around the real network work.
				met.Requests.Inc()
				met.Trace(0, flight.SubPBFT, flight.KArrive, 0, uint64(i%16+1), uint64(i))
				for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
					if err := t0.Send(p, vote); err != nil {
						b.Fatal(err)
					}
				}
				met.Decided.Inc()
				met.ObserveStage(obs.StageConsensus, time.Duration(i%1000)*time.Microsecond)
				met.Trace(0, flight.SubPBFT, flight.KDecide, 0, uint64(i%16+1), uint64(i))
			}
		})

		b.Run("async-journal/"+v.name, func(b *testing.B) {
			fsync := met.WALFsync
			d, err := store.Open(b.TempDir(), store.Options{
				AsyncOnCommit: func(_ int, _ int64, took time.Duration) {
					fsync.Observe(took)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			state := types.Hash([]byte("state"))
			var completed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				batch := &types.Batch{Txns: []types.Transaction{{
					Client: types.ClientID(i%16 + 1), Seq: seq, Op: []byte("op"),
				}}}
				proof := ledger.Proof{Round: types.Round(seq), Digest: batch.Digest()}
				submitted := time.Now()
				cli, cseq := uint64(i%16+1), seq
				d.AppendAsync(batch, proof, state, func(lsn uint64, err error) {
					if err != nil {
						b.Error(err)
					}
					met.ObserveStage(obs.StageJournal, time.Since(submitted))
					met.Trace(0, flight.SubRuntime, flight.KDurable, 0, cli, cseq)
					completed.Add(1)
				})
			}
			for completed.Load() < uint64(b.N) {
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}

// BenchmarkFlightRecord prices the flight recorder where it bills the event
// loop: the vote-broadcast path, with the two protocol events a decided
// round records (instance decision, wave unification) around the real
// network work. The /nop variant runs the identical call structure through a
// zero NodeMetrics (nil recorder — every Emit is the nil-check); the /live
// variant records into a real 4096-slot ring. scripts/benchgate pairs them
// and holds live within 5% of nop in CI.
func BenchmarkFlightRecord(b *testing.B) {
	variants := []struct {
		name string
		met  *obs.NodeMetrics
	}{
		{"nop", &obs.NodeMetrics{}},
		{"live", obs.NewNodeMetrics(obs.NewRegistry(), 4096, 64)},
	}
	for _, v := range variants {
		met := v.met
		b.Run("vote-broadcast/"+v.name, func(b *testing.B) {
			t0 := dialLoopbackPeers(b, nil)
			vote := netVote()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met.Emit(0, flight.SubRCC, flight.KInstanceDecide, uint32(i%15), uint64(i%8), uint64(i), 0)
				for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
					if err := t0.Send(p, vote); err != nil {
						b.Fatal(err)
					}
				}
				met.Emit(0, flight.SubRCC, flight.KWaveUnify, 0, 0, uint64(i), 3)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Execution (internal/exec)
// ---------------------------------------------------------------------------

// BenchmarkExec prices the in-order executor (the paper's 217 ktxn/s
// execution wall, Fig. 7 left) on two applications: YCSB writes to
// distinct records, and bank transfers between uniformly drawn accounts.
func BenchmarkExec(b *testing.B) {
	const (
		execRecords = 1 << 16
		execBatch   = 2048
		execField   = 512
		execRounds  = 8
	)

	ycsbBatches := func() []*types.Batch {
		rng := rand.New(rand.NewSource(1))
		batches := make([]*types.Batch, execRounds)
		seq := uint64(0)
		for r := range batches {
			bt := &types.Batch{Txns: make([]types.Transaction, 0, execBatch)}
			for i := 0; i < execBatch; i++ {
				seq++
				key := uint32(1 + seq%(execRecords-1)) // distinct within a batch
				value := make([]byte, execField)
				rng.Read(value)
				bt.Txns = append(bt.Txns, types.Transaction{
					Client: 1, Seq: seq, Op: ycsb.EncodeWrite(key, value),
				})
			}
			batches[r] = bt
		}
		return batches
	}

	bankBatches := func() []*types.Batch {
		const accounts = 8192
		rng := rand.New(rand.NewSource(9))
		batches := make([]*types.Batch, execRounds)
		seq := uint64(0)
		for r := range batches {
			bt := &types.Batch{Txns: make([]types.Transaction, 0, execBatch)}
			for i := 0; i < execBatch; i++ {
				seq++
				t := bank.Transfer{
					From:      fmt.Sprintf("acct-%05d", rng.Intn(accounts)),
					To:        fmt.Sprintf("acct-%05d", rng.Intn(accounts)),
					Threshold: 100,
					Amount:    1,
				}
				bt.Txns = append(bt.Txns, types.Transaction{Client: 1, Seq: seq, Op: t.Encode()})
			}
			batches[r] = bt
		}
		return batches
	}
	bankApp := func() exec.Application {
		opening := make(map[string]int64, 8192)
		for i := 0; i < 8192; i++ {
			opening[fmt.Sprintf("acct-%05d", i)] = 1_000_000
		}
		return bank.New(opening)
	}

	run := func(b *testing.B, app exec.Application, batches []*types.Batch) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec.Apply(app, batches[i%len(batches)].Txns)
			app.StateDigest()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*execBatch/b.Elapsed().Seconds(), "txn/s")
	}

	b.Run("ycsb", func(b *testing.B) { run(b, ycsb.NewStore(execRecords), ycsbBatches()) })
	b.Run("bank", func(b *testing.B) { run(b, bankApp(), bankBatches()) })
}

// ---------------------------------------------------------------------------
// Frame authentication (internal/crypto)
// ---------------------------------------------------------------------------

// BenchmarkAuth prices one Tag + one Verify — the per-frame bill both ends
// of an authenticated link pay — for each scheme, on a vote-sized payload
// (53 B, every wire message except proposals) and a 100-transaction
// proposal.
func BenchmarkAuth(b *testing.B) {
	secret := []byte("bench-auth-secret")
	run := func(name string, tagger, verifier crypto.Authenticator, payload []byte) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				tag := tagger.Tag(1, payload)
				if !verifier.Verify(0, payload, tag) {
					b.Fatal("verify failed")
				}
			}
		})
	}
	for _, s := range []struct {
		name string
		n    int
	}{{"53B", 53}, {"5400B", 5400}} {
		payload := make([]byte, s.n)
		for i := range payload {
			payload[i] = byte(i)
		}
		run("mac/"+s.name, crypto.NewMAC(0, secret), crypto.NewMAC(1, secret), payload)
		run("ds/"+s.name, crypto.NewDSDev(0, secret), crypto.NewDSDev(1, secret), payload)
	}
}

// ---------------------------------------------------------------------------
// Client reply path (internal/client)
// ---------------------------------------------------------------------------

// replyPathEnv is a client environment that drops what the client sends
// and ignores its timer.
type replyPathEnv struct{ params quorum.Params }

func (e *replyPathEnv) Client() types.ClientID              { return 1 }
func (e *replyPathEnv) Params() quorum.Params               { return e.params }
func (e *replyPathEnv) Send(types.ReplicaID, types.Message) {}
func (e *replyPathEnv) Broadcast(types.Message)             {}
func (e *replyPathEnv) SetTimer(sm.TimerID, time.Duration)  {}
func (e *replyPathEnv) CancelTimer(sm.TimerID)              {}
func (e *replyPathEnv) Now() time.Duration                  { return 0 }
func (e *replyPathEnv) Logf(string, ...any)                 {}

// BenchmarkClientReplyPath prices the client machine's per-transaction
// work at n = 4: a transaction is submitted, leaves in a 100-transaction
// Flush, and completes on the f+1 matching batch replies that list it. One
// op is one transaction.
func BenchmarkClientReplyPath(b *testing.B) {
	const k = 100
	params, _ := quorum.NewParams(4)
	var c *client.Client
	fresh := func() {
		c = client.New(client.Config{Client: 1, Broadcast: true, RetryTimeout: time.Hour})
		c.SetWindow(k)
		c.Start(&replyPathEnv{params: params})
	}
	subs := make([]*client.Submission, k)
	seqs := make([]uint64, k)
	for i := range subs {
		seqs[i] = uint64(i + 1)
		subs[i] = &client.Submission{Tx: types.Transaction{Client: 1, Seq: seqs[i], Op: []byte{1}}}
	}
	result := types.Hash([]byte("result"))
	replies := make([]*types.ClientReply, params.FaultDetection())
	for i := range replies {
		replies[i] = types.NewClientReply(0, types.ReplicaID(i), 1, 1, result, seqs)
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += k {
		if done%(1000*k) == 0 {
			// A client keeps every completion; start over so the log
			// stays small.
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		for _, s := range subs {
			c.OnMessage(types.NoReplica, s)
		}
		c.Flush()
		for i, r := range replies {
			c.OnMessage(types.ReplicaID(i), r)
		}
	}
}

// ---------------------------------------------------------------------------
// Backup batch path (internal/pbft)
// ---------------------------------------------------------------------------

// backupEnv is a replica environment that drops what the instance sends,
// ignores its timers and discards its decisions.
type backupEnv struct{ params quorum.Params }

func (e *backupEnv) ID() types.ReplicaID                      { return 1 }
func (e *backupEnv) Params() quorum.Params                    { return e.params }
func (e *backupEnv) Send(types.ReplicaID, types.Message)      {}
func (e *backupEnv) Broadcast(types.Message)                  {}
func (e *backupEnv) SendClient(types.ClientID, types.Message) {}
func (e *backupEnv) Deliver(sm.Decision)                      {}
func (e *backupEnv) SetTimer(sm.TimerID, time.Duration)       {}
func (e *backupEnv) CancelTimer(sm.TimerID)                   {}
func (e *backupEnv) Now() time.Duration                       { return 0 }
func (e *backupEnv) Suspect(types.InstanceID, types.Round)    {}
func (e *backupEnv) RequestStateSync()                        {}
func (e *backupEnv) Checkpoint(bool)                          {}
func (e *backupEnv) Logf(string, ...any)                      {}

// BenchmarkBackupBatchPath prices a pbft backup's per-transaction work at
// n = 4 with 100-transaction batches and 69-byte ops: each transaction
// arrives in a 25-transaction CLIENT-REQUEST, and per batch the backup
// checks one PRE-PREPARE against its digest, tallies 2f PREPAREs and 2f+1
// COMMITs, and delivers. The harness digests each batch once more, as the
// primary would, to fill in the PRE-PREPARE. One op is one transaction.
func BenchmarkBackupBatchPath(b *testing.B) {
	const k, perReq = 100, 25
	params, _ := quorum.NewParams(4)
	p := pbft.New(pbft.Config{Primary: 0, FixedPrimary: true, Window: 64, BatchSize: k})
	p.Start(&backupEnv{params: params})
	batch := &types.Batch{Txns: make([]types.Transaction, k)}
	for i := range batch.Txns {
		batch.Txns[i] = types.Transaction{Client: 1, Op: make([]byte, 69)}
	}
	reqs := make([]*types.ClientRequest, k/perReq)
	for i := range reqs {
		reqs[i] = types.NewClientRequest(0, batch.Txns[i*perReq:(i+1)*perReq]...)
	}
	pp := &types.PrePrepare{Batch: batch}
	prepares := []*types.Prepare{types.NewPrepare(0, 2, 0, 0, types.Digest{}), types.NewPrepare(0, 3, 0, 0, types.Digest{})}
	commits := []*types.Commit{types.NewCommit(0, 0, 0, 0, types.Digest{}), types.NewCommit(0, 2, 0, 0, types.Digest{}), types.NewCommit(0, 3, 0, 0, types.Digest{})}
	from := sm.FromClient(1)
	var seq uint64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += k {
		for i := range batch.Txns {
			seq++
			batch.Txns[i].Seq = seq
		}
		for _, r := range reqs {
			p.OnMessage(from, r)
		}
		pp.Round++
		pp.Digest = batch.Digest()
		p.OnMessage(sm.FromReplica(0), pp)
		for _, m := range prepares {
			m.Round, m.Digest = pp.Round, pp.Digest
			p.OnMessage(sm.FromReplica(m.Replica), m)
		}
		for _, m := range commits {
			m.Round, m.Digest = pp.Round, pp.Digest
			p.OnMessage(sm.FromReplica(m.Replica), m)
		}
	}
	if p.Delivered() != pp.Round+1 {
		b.Fatalf("delivered up to round %d, want %d", p.Delivered()-1, pp.Round)
	}
}
