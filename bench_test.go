package repro

// One benchmark per table/figure of the paper's evaluation (§V). Each
// regenerates its experiment series and reports the headline number as a
// custom metric, so `go test -bench=.` doubles as the reproduction run:
//
//	go test -bench=. -benchmem .
//
// The flow-model experiments (Fig. 1, 7, 8, 9, summary) are deterministic
// and fast; Fig. 6 and Fig. 10 execute the real protocol state machines on
// the discrete-event simulator. The ablation benchmarks after them isolate
// concurrency (m) and out-of-order processing.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/bench"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/flowsim"
	"repro/internal/ledger"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/rcc"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// reportPeak extracts a table's peak numeric cell in the given column.
func reportPeak(b *testing.B, t *bench.Table, col int, unit string) {
	b.Helper()
	peak := 0.0
	for _, row := range t.Rows {
		var v float64
		if _, err := fmt.Sscan(row[col], &v); err == nil && v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak, unit)
}

func BenchmarkFig1AnalyticalBounds(b *testing.B) {
	var pts []model.Point
	for i := 0; i < b.N; i++ {
		pts = model.Fig1Series(model.DefaultFig1(400), 100)
	}
	b.ReportMetric(pts[len(pts)-1].Tcmax, "Tcmax_txn/s_n=100")
	b.ReportMetric(pts[len(pts)-1].Tmax, "Tmax_txn/s_n=100")
}

func BenchmarkFig6OrderingAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.Fig6(); len(t.Rows) != 4 {
			b.Fatal("fig6 rows")
		}
	}
}

func BenchmarkFig7LeftSingleReplica(b *testing.B) {
	env := flowsim.DefaultEnv()
	for i := 0; i < b.N; i++ {
		_ = flowsim.SingleReplicaFull(env, 100)
	}
	b.ReportMetric(flowsim.SingleReplicaReply(env), "reply_txn/s")
	b.ReportMetric(flowsim.SingleReplicaFull(env, 100), "full_txn/s")
}

func BenchmarkFig7RightCrypto(b *testing.B) {
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.Fig7Right()
	}
	_ = t
}

func benchFig8(b *testing.B, f func() *bench.Table) {
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = f()
	}
	reportPeak(b, t, 1, "peak_RCCn_ktxn/s")
}

func BenchmarkFig8aScalabilityNoFailures(b *testing.B)  { benchFig8(b, bench.Fig8a) }
func BenchmarkFig8bLatencyNoFailures(b *testing.B)      { benchFig8(b, bench.Fig8b) }
func BenchmarkFig8cScalabilityOneFailure(b *testing.B)  { benchFig8(b, bench.Fig8c) }
func BenchmarkFig8dLatencyOneFailure(b *testing.B)      { benchFig8(b, bench.Fig8d) }
func BenchmarkFig8eBatchingThroughput(b *testing.B)     { benchFig8(b, bench.Fig8e) }
func BenchmarkFig8fBatchingLatency(b *testing.B)        { benchFig8(b, bench.Fig8f) }
func BenchmarkFig8gNoOutOfOrderThroughput(b *testing.B) { benchFig8(b, bench.Fig8g) }
func BenchmarkFig8hNoOutOfOrderLatency(b *testing.B)    { benchFig8(b, bench.Fig8h) }

func BenchmarkFig9Paradigm(b *testing.B) {
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.Fig9()
	}
	reportPeak(b, t, 3, "peak_RCC-S_ktxn/s")
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

func BenchmarkSummaryRatios(b *testing.B) {
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = bench.Summary()
	}
	_ = t
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationConcurrency sweeps the instance count m at n=32,
// isolating the effect of concurrency (RCC3 vs RCCf+1 vs RCCn).
func BenchmarkAblationConcurrency(b *testing.B) {
	for _, m := range []int{1, 3, 11, 32} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var r flowsim.Result
			for i := 0; i < b.N; i++ {
				r = flowsim.Evaluate(flowsim.Setup{
					Protocol: flowsim.PBFT, N: 32, Concurrent: m, BatchSize: 100,
					Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC, OutOfOrder: true,
				})
			}
			b.ReportMetric(r.Throughput, "txn/s")
		})
	}
}

// BenchmarkAblationOutOfOrder isolates the out-of-order window (Fig. 8 g,h
// reduced to one on/off pair).
func BenchmarkAblationOutOfOrder(b *testing.B) {
	for _, ooo := range []bool{true, false} {
		b.Run(fmt.Sprintf("ooo=%v", ooo), func(b *testing.B) {
			var r flowsim.Result
			for i := 0; i < b.N; i++ {
				r = flowsim.Evaluate(flowsim.Setup{
					Protocol: flowsim.PBFT, N: 32, Concurrent: 1, BatchSize: 100,
					Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC, OutOfOrder: ooo,
				})
			}
			b.ReportMetric(r.Throughput, "txn/s")
		})
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
// arrives, and the bounded wait fails loudly instead of hanging CI).
func dialLoopbackPeers(b *testing.B) *transport.TCP {
	b.Helper()
	peerMap := make(map[types.ReplicaID]string)
	for id := types.ReplicaID(1); id <= loopbackPeers; id++ {
		r, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: "127.0.0.1:0"}, discardEndpoint{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { r.Close() })
		peerMap[id] = r.Addr()
	}
	t0, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: peerMap,
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
// the baseline rows' (BENCH_baseline.json).
func BenchmarkBroadcast(b *testing.B) {
	for _, m := range []struct {
		name string
		msg  types.Message
	}{
		{"vote/async", netVote()},
		{"preprepare100/enqueue", netPrePrepare(100)},
	} {
		b.Run(m.name, func(b *testing.B) {
			t0 := dialLoopbackPeers(b)
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
}

// ---------------------------------------------------------------------------
// Observability (internal/obs)
// ---------------------------------------------------------------------------

// BenchmarkObsInstruments prices the individual hot-path instruments: one
// counter increment, one histogram observation, and one tracer sampling
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
			met.Trace(1, 1, obs.PointArrive)
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
			t0 := dialLoopbackPeers(b)
			vote := netVote()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The instrumentation a decided round charges the event
				// loop, around the real network work.
				met.Requests.Inc()
				met.Trace(uint64(i%16+1), uint64(i), obs.PointArrive)
				for p := types.ReplicaID(1); p <= loopbackPeers; p++ {
					if err := t0.Send(p, vote); err != nil {
						b.Fatal(err)
					}
				}
				met.Decided.Inc()
				met.ObserveStage(obs.StageConsensus, time.Duration(i%1000)*time.Microsecond)
				met.Trace(uint64(i%16+1), uint64(i), obs.PointDecide)
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
					met.Trace(cli, cseq, obs.PointDurable)
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
			t0 := dialLoopbackPeers(b)
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
		e := exec.NewEngine(app, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ExecuteBatch(batches[i%len(batches)], ledger.Proof{Round: types.Round(i + 1)})
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
