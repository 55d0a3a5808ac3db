package obs

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs/flight"
)

// Stage is one segment of a transaction's server-side lifecycle. The
// stages tile the path a request takes through the replica, so their sums
// account for end-to-end latency:
//
//	consensus + unify + ack ≈ client-observed server latency
//
// where ack itself contains execute and, on a durable replica, the journal
// submit→durable wait.
type Stage uint8

const (
	// StageVerify: inbound frame read → its tag checked and its records
	// decoded, on the link's reader (transport). Populated on every
	// authenticated link, MAC or signature; unauthenticated links skip it.
	StageVerify Stage = iota
	// StageConsensus: proposal first seen (pre-prepare) → round decided
	// and delivered by its BCA instance (pbft).
	StageConsensus
	// StageUnify: instance decision received → delivered in the unified
	// cross-instance execution order (rcc).
	StageUnify
	// StageExecute: batch applied to the application state machine (exec).
	StageExecute
	// StageJournal: journal record submitted → reported durable (wal).
	StageJournal
	// StageAck: unified delivery → client replies enqueued (runtime); spans
	// execution and, on a durable replica, the durability wait.
	StageAck

	numStages
)

var stageNames = [numStages]string{"verify", "consensus", "unify", "execute", "journal", "ack"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// NodeMetrics is the replica's instrument catalog: per-stage latency
// histograms, consensus/runtime counters, and the lifecycle tracer. One
// NodeMetrics is shared by every layer of a replica (pbft, rcc, exec, wal,
// runtime), all feeding one Registry.
//
// A nil *NodeMetrics — and equally a zero NodeMetrics, whose instrument
// fields are all nil — is the no-op sink: every method and every instrument
// call is safe and free-ish, so instrumented code needs no conditional
// plumbing.
type NodeMetrics struct {
	// Tracer samples transaction lifecycles; nil disables tracing.
	Tracer *Tracer

	// Flight is the black-box protocol-event recorder; nil disables it.
	// Every subsystem holding this catalog emits into the same ring —
	// events carry their replica id, so one ring serves an in-process
	// cluster as well as a single node.
	Flight *flight.Recorder

	// Requests counts client transactions admitted by consensus instances
	// (post-dedup).
	Requests *Counter
	// ClientRequests counts client request envelopes the replica received,
	// each carrying one or more transactions under one authenticator tag.
	ClientRequests *Counter
	// Decided counts rounds decided by individual BCA instances.
	Decided *Counter
	// Unified counts rounds delivered in the unified execution order.
	Unified *Counter
	// NoOps counts no-op rounds proposed to fill lagging instances.
	NoOps *Counter
	// Suspects counts instance-failure suspicions raised.
	Suspects *Counter
	// ViewChanges counts new views installed.
	ViewChanges *Counter
	// Acks counts client reply messages enqueued.
	Acks *Counter
	// WALFsync observes async-appender commit-point (fsync) latency.
	WALFsync *Histogram

	reg    *Registry
	stages [numStages]*Histogram
}

// NewNodeMetrics builds the catalog, registering every instrument in reg.
// traceSize and traceSample parameterize the lifecycle tracer (zero values
// pick defaults); traceSample < 0 disables tracing entirely.
func NewNodeMetrics(reg *Registry, traceSize, traceSample int) *NodeMetrics {
	m := &NodeMetrics{reg: reg}
	if traceSample >= 0 {
		m.Tracer = NewTracer(traceSize, traceSample)
	}
	const stageHelp = "per-stage transaction latency: verify (frame staged to authenticated), consensus (proposal seen to decided), unify (decided to unified order), execute (state machine apply), journal (submit to durable), ack (delivered to replies enqueued)"
	for s := Stage(0); s < numStages; s++ {
		m.stages[s] = reg.Histogram("rcc_stage_latency_seconds", `stage="`+s.String()+`"`, stageHelp)
	}
	m.Requests = reg.Counter("rcc_requests_total", "", "client transactions admitted by consensus instances")
	m.ClientRequests = reg.Counter("rcc_client_requests_total", "", "client request envelopes received (one authenticator tag, one or more transactions each)")
	m.Decided = reg.Counter("rcc_rounds_decided_total", "", "rounds decided by individual consensus instances")
	m.Unified = reg.Counter("rcc_rounds_unified_total", "", "rounds delivered in the unified execution order")
	m.NoOps = reg.Counter("rcc_noops_proposed_total", "", "no-op rounds proposed to fill lagging instances")
	m.Suspects = reg.Counter("rcc_suspects_total", "", "instance-failure suspicions raised")
	m.ViewChanges = reg.Counter("rcc_view_changes_total", "", "new views installed")
	m.Acks = reg.Counter("rcc_acks_sent_total", "", "client reply messages enqueued")
	m.WALFsync = reg.Histogram("wal_fsync_seconds", "", "async appender commit-point (fsync) latency")
	m.Flight = flight.New(0)
	registerRuntimeMetrics(reg)
	return m
}

// registerRuntimeMetrics exports Go process self-metrics so /metrics covers
// the process, not just the protocol: goroutine count, heap in use, GC
// pause p99, GOMAXPROCS, and a build-info marker. The runtime/metrics reads
// are cached and refreshed at most once per second, so scrape storms cannot
// turn gauge polls into runtime pressure.
func registerRuntimeMetrics(reg *Registry) {
	s := &runtimeSampler{}
	reg.GaugeFunc("go_goroutines", "", "goroutines currently live", func() float64 {
		return s.get(&s.goroutines)
	})
	reg.GaugeFunc("go_heap_inuse_bytes", "", "bytes of heap memory occupied by live objects", func() float64 {
		return s.get(&s.heapInuse)
	})
	reg.GaugeFunc("go_gc_pause_p99_seconds", "", "99th percentile stop-the-world GC pause since process start", func() float64 {
		return s.get(&s.gcPauseP99)
	})
	reg.GaugeFunc("go_gomaxprocs", "", "GOMAXPROCS at scrape time", func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	reg.GaugeFunc("rcc_build_info", fmt.Sprintf(`goversion=%q`, runtime.Version()),
		"constant 1, labeled with the Go toolchain that built this binary", func() float64 { return 1 })
}

// runtimeSampler caches one runtime/metrics read for all the gauges above.
type runtimeSampler struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample

	goroutines float64
	heapInuse  float64
	gcPauseP99 float64
}

func (s *runtimeSampler) get(field *float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.last) >= time.Second {
		s.refresh()
		s.last = now
	}
	return *field
}

func (s *runtimeSampler) refresh() {
	if s.samples == nil {
		s.samples = []metrics.Sample{
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/pauses/total/gc:seconds"},
		}
	}
	metrics.Read(s.samples)
	for i := range s.samples {
		v := &s.samples[i]
		switch {
		case v.Value.Kind() == metrics.KindUint64 && v.Name == "/sched/goroutines:goroutines":
			s.goroutines = float64(v.Value.Uint64())
		case v.Value.Kind() == metrics.KindUint64 && v.Name == "/memory/classes/heap/objects:bytes":
			s.heapInuse = float64(v.Value.Uint64())
		case v.Value.Kind() == metrics.KindFloat64Histogram && v.Name == "/sched/pauses/total/gc:seconds":
			s.gcPauseP99 = histP99(v.Value.Float64Histogram())
		}
	}
}

// histP99 extracts the 99th percentile from a runtime/metrics histogram,
// reported as the upper bound of the bucket the percentile falls in.
func histP99(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var cum uint64
	bound := func(i int) float64 {
		// Report the bucket's upper bound; for the +Inf overflow bucket
		// fall back to its lower bound so the gauge stays finite.
		if i+1 < len(h.Buckets) && !isInf(h.Buckets[i+1]) {
			return h.Buckets[i+1]
		}
		if i < len(h.Buckets) && !isInf(h.Buckets[i]) {
			return h.Buckets[i]
		}
		return 0
	}
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return bound(i)
		}
	}
	return bound(len(h.Counts) - 1)
}

func isInf(f float64) bool { return f > 1e300 || f < -1e300 }

// Registry returns the registry backing the catalog, nil for the no-op
// sink.
func (m *NodeMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Stage returns the histogram for s (nil on the no-op sink).
func (m *NodeMetrics) Stage(s Stage) *Histogram {
	if m == nil {
		return nil
	}
	return m.stages[s]
}

// Tracing reports whether lifecycle tracing is live — instrumented code
// uses it to skip per-transaction loops entirely when no tracer is
// attached.
func (m *NodeMetrics) Tracing() bool {
	return m != nil && m.Tracer != nil
}

// Trace stamps point for the transaction if it is sampled.
func (m *NodeMetrics) Trace(client, seq uint64, p TracePoint) {
	if m == nil {
		return
	}
	m.Tracer.Record(client, seq, p)
}

// Emit records a flight event; a nil catalog or nil recorder is a no-op,
// so protocol code emits unconditionally.
func (m *NodeMetrics) Emit(replica uint16, sub flight.Sub, kind flight.Kind, instance uint32, view, seq, detail uint64) {
	if m == nil {
		return
	}
	m.Flight.Record(replica, sub, kind, instance, view, seq, detail)
}

// ObserveStage is shorthand for Stage(s).Observe(d).
func (m *NodeMetrics) ObserveStage(s Stage, d time.Duration) {
	if m == nil {
		return
	}
	m.stages[s].Observe(d)
}
