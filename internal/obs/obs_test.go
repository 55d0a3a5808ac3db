package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/flight"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "help")
	g := reg.Gauge("g", "", "help")
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var fr *flight.Recorder
	var m *NodeMetrics
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	fr.Record(0, flight.SubPBFT, flight.KArrive, 0, 0, 1, 1)
	m.Trace(0, flight.SubPBFT, flight.KArrive, 0, 1, 1)
	m.ObserveStage(StageAck, time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || fr.Head() != 0 || m.Sampled(1, 1) || m.Stage(StageAck) != nil || m.Tracing() {
		t.Fatal("nil instruments must be inert")
	}
	var zero NodeMetrics
	zero.Requests.Inc()
	zero.ObserveStage(StageExecute, time.Second)
	zero.Trace(0, flight.SubRuntime, flight.KAck, 0, 1, 1)
	if zero.Requests.Value() != 0 || zero.Sampled(1, 1) {
		t.Fatal("zero-value NodeMetrics must be a no-op sink")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if b := bucketBound(10); b != 1024e-6 {
		t.Errorf("bucketBound(10) = %v, want 1.024ms", b)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 100 observations: 1ms ... 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 5050 * time.Millisecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.Max)
	}
	// Log bucketing bounds the estimate to one bucket's width: each true
	// quantile must fall within (bucket_lower/2, bucket_upper*2].
	checks := []struct {
		name      string
		got, true time.Duration
	}{
		{"p50", s.P50, 50 * time.Millisecond},
		{"p95", s.P95, 95 * time.Millisecond},
		{"p99", s.P99, 99 * time.Millisecond},
	}
	for _, c := range checks {
		if c.got < c.true/2 || c.got > c.true*2 {
			t.Errorf("%s = %v, want within 2x of %v", c.name, c.got, c.true)
		}
	}
	if s.Mean() != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", s.Mean())
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while a
// reader snapshots — correctness is checked on the final totals, and the
// race detector checks the synchronization.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.P99 > s.Max {
					t.Error("p99 above max")
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(i%1000+w) * time.Microsecond)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(writers * perWriter); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var wantSum time.Duration
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			wantSum += time.Duration(i%1000+w) * time.Microsecond
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if want := time.Duration(999+writers-1) * time.Microsecond; s.Max != want {
		t.Fatalf("max = %v, want %v", s.Max, want)
	}
}

func TestTracerSamplingAndRing(t *testing.T) {
	tr := NewNodeMetrics(NewRegistry(), 16, 1) // sample everything, smallest ring
	for i := uint64(0); i < 20; i++ {
		tr.Trace(0, flight.SubPBFT, flight.KArrive, 0, 1, i)
	}
	evs := tr.Lifecycle.Dump(0).Events
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(evs))
	}
	if evs[0].Seq != 4 || evs[15].Seq != 19 {
		t.Fatalf("ring kept seqs %d..%d, want 4..19", evs[0].Seq, evs[15].Seq)
	}

	sampled := NewNodeMetrics(NewRegistry(), 64, 16)
	hits := 0
	for seq := uint64(0); seq < 16000; seq++ {
		if sampled.Sampled(3, seq) {
			hits++
		}
	}
	// 1-in-16 hash sampling over 16k seqs: expect ~1000, allow wide slack.
	if hits < 500 || hits > 1500 {
		t.Fatalf("sampled %d of 16000 at 1-in-16", hits)
	}
	// The decision must be stable across replicas: a second, independent
	// catalog, as another replica builds, samples exactly the same set.
	other := NewNodeMetrics(NewRegistry(), 0, 16)
	for client := uint64(0); client < 8; client++ {
		for seq := uint64(0); seq < 16000; seq++ {
			if sampled.Sampled(client, seq) != other.Sampled(client, seq) {
				t.Fatalf("sampling not deterministic: replicas disagree on (%d, %d)", client, seq)
			}
		}
	}
}

func TestTracerWriteText(t *testing.T) {
	tr := NewNodeMetrics(NewRegistry(), 16, 1)
	tr.Trace(0, flight.SubPBFT, flight.KArrive, 1, 2, 5)
	tr.Trace(0, flight.SubPBFT, flight.KDecide, 1, 2, 5)
	tr.Trace(0, flight.SubRuntime, flight.KAck, 1, 2, 5)
	var sb strings.Builder
	writeTrace(&sb, tr.Lifecycle.Dump(0), tr.sample)
	out := sb.String()
	for _, want := range []string{"client=2 seq=5", "arrive+", "decide+", "ack+"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace dump missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPanicsOnConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", "h")
	mustPanic(t, "duplicate series", func() { reg.Counter("x_total", "", "h") })
	mustPanic(t, "kind conflict", func() { reg.Gauge("x_total", "", "h") })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStageNames(t *testing.T) {
	want := []string{"verify", "batch", "consensus", "unify", "execute", "journal", "ack"}
	if int(numStages) != len(want) {
		t.Fatalf("%d stages, want %d", numStages, len(want))
	}
	for s := range numStages {
		if s.String() != want[s] {
			t.Errorf("stage %d = %q, want %q", s, s, want[s])
		}
	}
}
