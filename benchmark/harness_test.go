package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(xs, 0.9); !near(got, 4.6, 1e-9) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// A percentile is reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// One stalled and one bursting second do not move the midmean.
	if got := midmean([]float64{100, 100, 0, 100, 100, 900, 100, 100}); got != 100 {
		t.Errorf("midmean = %v, want 100", got)
	}
}

func TestRecoverSeconds(t *testing.T) {
	const rate = 1000.0
	sec := int64(time.Second)
	fault := 5 * sec
	var healthy, stalled []int64
	for i := int64(0); i < 10000; i++ { // one completion per ms for 10 s
		at := i * sec / 1000
		healthy = append(healthy, at)
		if at < fault || at >= fault+3*sec {
			stalled = append(stalled, at)
		}
	}
	for i := 0; i < 3000; i++ { // the stalled work completes in one burst
		stalled = append(stalled, fault+3*sec)
	}
	if got := recoverSeconds(healthy, fault, rate); !near(got, recoverWork/2, 0.01) {
		t.Errorf("healthy recover_s = %v, want about %v", got, recoverWork/2)
	}
	// 3000 completions at 3 s, then 1000 more over the following second.
	if got := recoverSeconds(stalled, fault, rate); !near(got, 3.125, 0.01) {
		t.Errorf("recover_s after a 3 s stall = %v, want about 3.125", got)
	}
}

// The same seed must give byte-identical transactions: the program sees only
// the generated inputs, and two runs of one seed see the same ones.
func TestSeedFixesTheTransactionStream(t *testing.T) {
	stream := func(seed int64) []byte {
		var buf []byte
		for _, c := range allClients {
			gen := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: clientSeed(seed, c)})
			for i := 0; i < 500; i++ {
				var err error
				buf, err = types.AppendMessage(buf, types.NewClientRequest(0, gen.Next(c)))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf
	}
	a := stream(7)
	if !bytes.Equal(a, stream(7)) {
		t.Error("seed 7 generated two different streams")
	}
	if bytes.Equal(a, stream(8)) {
		t.Error("seeds 7 and 8 generated the same stream")
	}
}

// Each decorator must still offer the optional interfaces of what it wraps,
// or the program silently takes a slower or different path when traced.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer(1)
	tr.on.Store(true)
	lt := tr.layers[0]

	mac := traceAuth(crypto.NewMAC(crypto.PartyID(0), secret), lt)
	if _, ok := mac.(crypto.TagAppender); !ok {
		t.Error("traced MAC lost crypto.TagAppender")
	}
	if _, ok := mac.(crypto.BatchAuthenticator); ok {
		t.Error("traced MAC gained crypto.BatchAuthenticator")
	}
	ds := traceAuth(crypto.NewDSDev(crypto.PartyID(0), secret), lt)
	if _, ok := ds.(crypto.BatchAuthenticator); !ok {
		t.Error("traced DS lost crypto.BatchAuthenticator")
	}
	if _, ok := ds.(crypto.TagAppender); ok {
		t.Error("traced DS gained crypto.TagAppender")
	}

	// The wrapped authenticators still authenticate, and the layer is charged.
	peer := crypto.NewMAC(crypto.PartyID(1), secret)
	payload := []byte("payload")
	tag := mac.(crypto.TagAppender).AppendTag(crypto.PartyID(1), payload, nil)
	if !peer.Verify(crypto.PartyID(0), payload, tag) {
		t.Error("tag appended through the decorator does not verify")
	}
	if mac.Verify(crypto.PartyID(1), payload, []byte("forged")) {
		t.Error("forged tag verified")
	}
	sig := ds.Tag(crypto.PartyID(1), payload)
	ok := make([]bool, 1)
	ds.(crypto.BatchAuthenticator).VerifyBatch(crypto.PartyID(0), [][]byte{payload}, [][]byte{sig}, ok)
	if !ok[0] {
		t.Error("signature made through the decorator does not batch-verify")
	}
	if ops, fails := lt.cryptoOps.Load(), lt.verifyFail.Load(); ops != 4 || fails != 1 {
		t.Errorf("crypto layer counted %d ops and %d failures, want 4 and 1", ops, fails)
	}

	var machine sm.Machine = &tracedMachine{Replica: rcc.New(rcc.Config{}), lt: lt}
	if _, ok := machine.(sm.StateSyncable); !ok {
		t.Error("traced machine lost sm.StateSyncable")
	}
	if _, ok := machine.(sm.BoundarySyncable); !ok {
		t.Error("traced machine lost sm.BoundarySyncable")
	}
	var app any = &tracedApp{Store: ycsb.NewStore(16), tr: tr}
	if _, ok := app.(store.Snapshotter); !ok {
		t.Error("traced application lost store.Snapshotter")
	}
}

// smokePlan keeps the live-cluster tests inside the few seconds tier-1 allows.
func smokePlan(seconds int) plan {
	return plan{seconds: seconds, warmup: 300 * time.Millisecond, setups: 1}
}

// An open loop charges latency from the due time and reports how late the
// generator ran: due times follow the schedule exactly, whatever the hand-over
// times were.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	sp, err := specByName("lan_open")
	if err != nil {
		t.Fatal(err)
	}
	sp.rate = 2000
	c, err := boot(sp, 3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	gen := newGenerator(c, now()+int64(500*time.Millisecond))
	gen.start()
	gen.wg.Wait() // the scheduler returns at its end instant
	gen.stop()
	gen.drain(failAfter)

	step := int64(time.Second) / int64(sp.rate)
	n := 0
	for i, lc := range c.clients {
		recs := lc.snapshot()
		if i == 0 {
			recs = recs[1:] // the set-up transaction
		}
		for k, r := range recs {
			n++
			if k > 0 {
				if gap := r.due - recs[k-1].due; gap != step*int64(len(c.clients)) {
					t.Fatalf("client %d: requests %d and %d are due %d ns apart, want %d", lc.id, k-1, k, gap, step*int64(len(c.clients)))
				}
			}
			if r.done == 0 {
				t.Fatalf("client %d request %d never completed", lc.id, k)
			}
		}
	}
	if want := sp.rate / 2; n < want-5 || n > want {
		t.Errorf("scheduled %d requests in 0.5 s at %d txn/s", n, sp.rate)
	}
	if len(gen.lateMs) != n {
		t.Errorf("lateness recorded for %d of %d requests", len(gen.lateMs), n)
	}
	if earliest := percentile(gen.lateMs, 0); earliest < 0 {
		t.Errorf("a request was handed over %v ms before it was due", -earliest)
	}
	if late := gen.lateP99(); late <= 0 {
		t.Errorf("generator lateness p99 = %v, want a measured value", late)
	}
}

// A short traced lan_sat at window 8 passes the correctness check and reports
// exactly the metrics BENCHMARK.json lists.
func TestSmokeLanSat(t *testing.T) {
	sp, err := specByName("lan_sat")
	if err != nil {
		t.Fatal(err)
	}
	sp.window = 8
	out := t.TempDir()
	res, err := runWorkload(sp, 1, smokePlan(2), true, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
	}
	if share := res.PerLayer["trace.unattributed_share"].Value; share > 0.05 {
		t.Errorf("trace.unattributed_share = %v", share)
	}
	if _, err := os.Stat(filepath.Join(out, "lan_sat.trace.jsonl")); err != nil {
		t.Error(err)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(res.EndToEnd) != len(endToEnd) {
		t.Fatalf("end-to-end metrics: BENCHMARK.json %d, table %d, run %d", len(doc.EndToEnd), len(endToEnd), len(res.EndToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || (m.Better == "lower") != want.lowerIsBetter || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, table %+v", i, m, want)
		}
		if got, ok := res.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("run reported %s = %+v (present %v)", m.Name, got, ok)
		}
	}
	if len(doc.PerLayer) != len(res.PerLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %d, run %d", len(doc.PerLayer), len(res.PerLayer))
	}
	for _, m := range doc.PerLayer {
		if got, ok := res.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("run reported %s = %+v (present %v), BENCHMARK.json wants unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(tps, p50 []float64) *resultSet {
		s := &resultSet{}
		for i := range tps {
			s.Results = append(s.Results, &result{Workload: "lan_sat", Correct: true, Valid: true,
				EndToEnd: map[string]metric{"txn_per_s": {tps[i], "txn/s"}, "lat_p50_ms": {p50[i], "ms"}}})
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", set([]float64{1000, 1010, 990, 1005}, []float64{10, 10.1, 9.9, 10}))
	slower := write("b.json", set([]float64{600, 610, 590, 605}, []float64{10, 10.1, 9.9, 10.05}))
	noisy := write("c.json", set([]float64{600, 1400, 1000, 900}, []float64{10, 10.1, 9.9, 10}))

	var out strings.Builder
	regressed, err := compareFiles(&out, a, slower)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "REGRESSED") || strings.Count(out.String(), " ok") != 1 {
		t.Errorf("a 40%% throughput loss with flat latency compared as:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareFiles(&out, a, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set whose spread exceeds the bound compared as:\n%s", out.String())
	}
}
