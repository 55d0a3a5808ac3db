package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
)

// counters are the program's public counters, read at both ends of the
// window. Replica-side values come from replica 0 (never killed) unless
// summed over all four.
type counters struct {
	tcp                [nodes]transport.TCPStats
	submitted, batches uint64 // wal.Appender.Stats
	height, txns       uint64 // Ledger
	rounds, noops      uint64 // rcc.Replica, read on its event loop
	retries            uint64 // summed over clients
	mem                goruntime.MemStats
	dirBytes           int64
}

func readCounters(c *cluster) *counters {
	k := &counters{}
	for i, n := range c.nodes {
		k.tcp[i] = n.tcp.Stats()
	}
	n0 := c.nodes[0]
	k.submitted, k.batches = n0.rep.Durable().Appender().Stats()
	k.height, k.txns = n0.rep.Ledger().Height(), n0.rep.Ledger().TxnCount()
	n0.rep.Inspect(func() {
		k.rounds, k.noops = n0.mach.RoundsExecuted(), n0.mach.NoOpsProposed()
	})
	for _, lc := range c.clients {
		k.retries += lc.mach.Retries()
	}
	goruntime.ReadMemStats(&k.mem)
	k.dirBytes = dirSize(n0.dir)
	return k
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a segment rotated away mid-walk is not an error here
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// span is one traced interval of one request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Request string `json:"request"`
}

// budgetRow is one line of the latency budget: a span's p50 and p90 over the
// sampled requests.
type budgetRow struct {
	Span   string  `json:"span"`
	Parent string  `json:"parent"`
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	P90ms  float64 `json:"p90_ms"`
}

// spanOrder lists the spans of a request: the root, its seven contiguous
// children in path order, and exec.execute inside runtime.ack.
var spanOrder = []struct{ name, parent string }{
	{"request", ""},
	{"client.queue", "request"},
	{"transport.request", "request"},
	{"pbft.batch_wait", "request"},
	{"rcc.order", "request"},
	{"runtime.ack", "request"},
	{"exec.execute", "runtime.ack"},
	{"transport.reply", "request"},
	{"client.collect", "request"},
}

// spansOf cuts one request into its spans. The server-side legs are taken on
// the replica whose reply reached the client first: with f+1 of n replies
// completing a request, the serving primary's own reply is often not on the
// blocking path. Each child starts where the previous one ends; what is left
// between the f+1-th reply reaching the client's endpoint and the completion
// hook is the unattributed remainder. ok is false when a point is missing
// (request retransmitted, failed, or completed after the tracer went off).
func spansOf(rt *reqTrace) (out []span, ok bool) {
	fastest := -1
	var arrivals []int64
	for r, t := range rt.reply {
		if t == 0 {
			continue
		}
		arrivals = append(arrivals, t)
		if fastest < 0 || t < rt.reply[fastest] {
			fastest = r
		}
	}
	if len(arrivals) < 2 || rt.done == 0 {
		return nil, false
	}
	slices.Sort(arrivals)
	cuts := []int64{rt.due, rt.cliSend, rt.priDeliver, rt.ppSend,
		rt.execStart[fastest], rt.ack[fastest], rt.reply[fastest],
		arrivals[1]} // f+1 = 2 matching replies complete a request
	for i, t := range cuts {
		if t == 0 || (i > 0 && t < cuts[i-1]) {
			return nil, false
		}
	}
	id := fmt.Sprintf("c%d-s%d", rt.client, rt.seq)
	add := func(name, parent string, start, end int64) {
		out = append(out, span{name, start, end, parent, id})
	}
	add("request", "", rt.due, rt.done)
	for i, name := range []string{"client.queue", "transport.request", "pbft.batch_wait",
		"rcc.order", "runtime.ack", "transport.reply", "client.collect"} {
		add(name, "request", cuts[i], cuts[i+1])
		if name == "runtime.ack" {
			add("exec.execute", name, rt.execStart[fastest], rt.execEnd[fastest])
		}
	}
	return out, true
}

// layerMetrics turns the traced run's counters, histograms and spans into the
// per-layer metrics, writes the span file, and returns the latency budget.
// lat is sorted.
func layerMetrics(c *cluster, before, after *counters, win window,
	res *result, lat []float64, gen *generator, outDir string) (map[string]metric, []budgetRow) {

	tr := c.tr
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	txns := float64(after.txns - before.txns)
	wall := float64(win.end - win.start)
	n0 := c.nodes[0]

	// Spans.
	byName := make(map[string][]float64)
	var unattributed []float64
	var all []span
	tr.mu.Lock()
	for _, rt := range tr.reqs {
		spans, ok := spansOf(rt)
		if !ok {
			continue
		}
		all = append(all, spans...)
		var children int64
		for _, s := range spans {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
			if s.Parent == "request" {
				children += s.End - s.Start
			}
		}
		unattributed = append(unattributed, 1-ratio(float64(children), float64(rt.done-rt.due)))
	}
	traced := len(tr.reqs)
	tr.mu.Unlock()
	var budget []budgetRow
	for _, s := range spanOrder {
		d := byName[s.name]
		budget = append(budget, budgetRow{s.name, s.parent, len(d), percentile(d, 0.5), percentile(d, 0.9)})
	}
	if err := writeSpans(filepath.Join(outDir, c.sp.name+".trace.jsonl"), all); err != nil {
		res.Notes = append(res.Notes, "span file: "+err.Error())
	}
	if len(unattributed) < traced/2 {
		res.Notes = append(res.Notes, fmt.Sprintf("only %d of %d sampled requests have every span point", len(unattributed), traced))
	}

	// client
	put("client.queue_wait_ms_p50", percentile(byName["client.queue"], 0.5), "ms")
	put("client.collect_ms_p50", percentile(byName["client.collect"], 0.5), "ms")
	put("client.retries", float64(after.retries-before.retries), "count")
	put("client.lat_p99_ms", quantile(lat, min(tailQuantile(len(lat)), 0.99)), "ms")
	put("client.fail_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	put("client.gen_late_ms_p99", gen.lateP99().Seconds()*1e3, "ms")

	// transport
	var sent, frames, drops float64
	var sendWait time.Duration
	for i := range c.nodes {
		a, b := after.tcp[i], before.tcp[i]
		sent += float64(a.MsgsSent - b.MsgsSent)
		frames += float64(a.BatchesSent - b.BatchesSent)
		drops += float64(a.PeerDropped - b.PeerDropped + a.ClientDropped - b.ClientDropped +
			a.DecodeErrs - b.DecodeErrs + a.EncodeErrs - b.EncodeErrs +
			a.AuthRejects - b.AuthRejects + a.FaultDropped - b.FaultDropped)
		sendWait = max(sendWait, tr.layers[i].sendWait.Snapshot().P99)
	}
	put("transport.req_net_ms_p50", percentile(byName["transport.request"], 0.5), "ms")
	put("transport.reply_net_ms_p50", percentile(byName["transport.reply"], 0.5), "ms")
	put("transport.send_wait_us_p99", float64(sendWait)/1e3, "us")
	put("transport.msgs_per_txn", ratio(sent, txns), "msg")
	put("transport.msgs_per_frame", ratio(sent, frames), "msg")
	put("transport.drops", drops, "count")

	// types: replay the sampled messages of replica 0 through the codec.
	enc, dec, wire := codecReplay(n0, tr.layers[0])
	put("types.encode_ns_per_msg", enc, "ns")
	put("types.decode_ns_per_msg", dec, "ns")
	put("types.wire_bytes_per_txn", ratio(wire, txns), "B")

	// crypto, exec, rcc, runtime: decorator timers.
	var cryptoNs, cryptoOps, verifyFail, appNs, machNs0, busiest float64
	for i, lt := range tr.layers {
		cryptoNs += float64(lt.cryptoNs.Load())
		cryptoOps += float64(lt.cryptoOps.Load())
		verifyFail += float64(lt.verifyFail.Load())
		busiest = max(busiest, float64(lt.machNs.Load()))
		if i == 0 {
			appNs, machNs0 = float64(lt.appNs.Load()), float64(lt.machNs.Load())
		}
	}
	put("crypto.busy_us_per_txn", ratio(cryptoNs/1e3, txns), "us")
	put("crypto.ops_per_txn", ratio(cryptoOps, txns), "count")
	put("crypto.verify_fail", verifyFail, "count")
	put("exec.busy_us_per_txn", ratio(appNs/1e3, txns), "us")
	put("rcc.self_us_per_txn", ratio((machNs0-appNs)/1e3, txns), "us")
	put("runtime.loop_busy_share", ratio(busiest, wall), "ratio")

	inbox := tr.inbox.Snapshot()
	put("runtime.inbox_wait_us_p50", float64(inbox.P50)/1e3, "us")
	put("runtime.inbox_wait_us_p99", float64(inbox.P99)/1e3, "us")
	put("runtime.allocs_per_txn", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), txns), "count")
	put("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	_, rss := rusage()
	put("runtime.peak_rss_mb", rss, "MB")

	// The program's own stage histograms (cumulative since boot, so they
	// include the warm-up and the drain).
	stage := func(s obs.Stage) obs.HistSnapshot { return n0.met.Stage(s).Snapshot() }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	put("runtime.ack_ms_p50", ms(stage(obs.StageAck).P50), "ms")
	put("rcc.unify_ms_p50", ms(stage(obs.StageUnify).P50), "ms")
	put("rcc.unify_ms_p99", ms(stage(obs.StageUnify).P99), "ms")
	put("pbft.consensus_ms_p50", ms(stage(obs.StageConsensus).P50), "ms")
	put("pbft.consensus_ms_p99", ms(stage(obs.StageConsensus).P99), "ms")
	put("exec.execute_ms_p50", ms(stage(obs.StageExecute).P50), "ms")
	put("store.journal_ms_p50", ms(stage(obs.StageJournal).P50), "ms")
	put("store.journal_ms_p99", ms(stage(obs.StageJournal).P99), "ms")
	fsync := n0.met.WALFsync.Snapshot()
	put("wal.fsync_ms_p50", ms(fsync.P50), "ms")
	put("wal.fsync_ms_p99", ms(fsync.P99), "ms")

	// rcc, pbft, wal: public counters.
	rounds := float64(after.rounds - before.rounds)
	put("rcc.noop_share", ratio(float64(after.noops-before.noops), rounds*nodes), "ratio")
	put("rcc.txns_per_round", ratio(txns, rounds), "txn")
	put("rcc.order_ms_p50", percentile(byName["rcc.order"], 0.5), "ms")
	var stops float64
	n0.rep.Inspect(func() {
		for i := 0; i < n0.mach.M(); i++ {
			stops += float64(n0.mach.Status(types.InstanceID(i)).Stops)
		}
	})
	put("rcc.stops", stops, "count")
	put("pbft.batch_wait_ms_p50", percentile(byName["pbft.batch_wait"], 0.5), "ms")
	put("pbft.txns_per_batch", ratio(txns, float64(after.height-before.height)), "txn")
	var suspects, viewChanges float64
	for _, n := range c.nodes {
		suspects += float64(n.met.Suspects.Value())
		viewChanges += float64(n.met.ViewChanges.Value())
	}
	put("pbft.suspects", suspects, "count")
	put("pbft.view_changes", viewChanges, "count")
	put("wal.records_per_fsync", ratio(float64(after.submitted-before.submitted), float64(after.batches-before.batches)), "count")
	put("wal.bytes_per_txn", ratio(float64(after.dirBytes-before.dirBytes), txns), "B")

	// trace
	put("trace.unattributed_share", median(unattributed), "ratio")
	put("trace.overhead_share", overheadShare(outDir, c.sp.name, res.EndToEnd["cpu_s_per_ktxn"].Value), "ratio")
	return m, budget
}

// codecReplay runs the messages sampled at replica n's machine seam through
// types.AppendMessage and types.DecodeMessage and weights the per-type means
// by the observed type mix. It returns ns per message for each direction and
// the encoded bytes of every message the machine saw in the window.
func codecReplay(n *node, lt *layerTimers) (encNs, decNs, wireBytes float64) {
	count := make(map[types.MsgType]int64)
	sample := make(map[types.MsgType][]types.Message)
	n.rep.Inspect(func() { // the census belongs to the event loop
		for ty, k := range lt.msgCount {
			count[ty] = k
			sample[ty] = lt.msgSample[ty]
		}
	})
	var total float64
	for ty, msgs := range sample {
		if len(msgs) == 0 {
			continue
		}
		var bufs [][]byte
		t0 := time.Now()
		for _, m := range msgs {
			b, err := types.AppendMessage(nil, m)
			if err != nil {
				continue // types the codec does not carry never reach a socket
			}
			bufs = append(bufs, b)
		}
		enc := time.Since(t0)
		if len(bufs) == 0 {
			continue
		}
		t0 = time.Now()
		var bytes int
		for _, b := range bufs {
			if _, err := types.DecodeMessage(b); err == nil {
				bytes += len(b)
			}
		}
		dec := time.Since(t0)
		k := float64(count[ty])
		per := float64(len(bufs))
		encNs += k * float64(enc) / per
		decNs += k * float64(dec) / per
		wireBytes += k * float64(bytes) / per
		total += k
	}
	if total == 0 {
		return 0, 0, 0
	}
	return encNs / total, decNs / total, wireBytes
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Tracing overhead is the gap between a traced and an untraced run of the
// same workload: every untraced run leaves its CPU cost per transaction in
// untracedFile, and a traced run reports the share of its own cost above it
// (0 when no untraced run has been made in this output directory).
const untracedFile = "untraced.json"

func noteUntraced(outDir, workload string, cpuPerKtxn float64) error {
	seen := readUntraced(outDir)
	seen[workload] = cpuPerKtxn
	b, err := json.Marshal(seen)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, untracedFile), b, 0o644)
}

func readUntraced(outDir string) map[string]float64 {
	seen := make(map[string]float64)
	if b, err := os.ReadFile(filepath.Join(outDir, untracedFile)); err == nil {
		_ = json.Unmarshal(b, &seen) // a damaged file only loses the overhead figure
	}
	return seen
}

func overheadShare(outDir, workload string, tracedCPU float64) float64 {
	base, ok := readUntraced(outDir)[workload]
	if !ok || tracedCPU == 0 {
		return 0
	}
	return 1 - base/tracedCPU
}
