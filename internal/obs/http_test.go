package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
)

// validatePrometheusText checks a /metrics body against the Prometheus text
// exposition format (version 0.0.4): comment grammar, metric and label name
// charsets, float-parsable sample values, TYPE-before-samples ordering, and
// histogram invariants (cumulative buckets, +Inf bucket equal to _count).
func validatePrometheusText(t *testing.T, body string) {
	t.Helper()
	var (
		metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
		labelPair  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
	)
	typed := map[string]string{}     // family -> TYPE
	bucketCum := map[string]uint64{} // series labels (sans le) -> last cumulative bucket
	infBucket := map[string]uint64{}
	counts := map[string]uint64{}
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricName.MatchString(name) {
				t.Fatalf("line %d: bad HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !metricName.MatchString(fields[0]) {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, fields[1])
			}
			if _, dup := typed[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			typed[fields[0]] = fields[1]
		case strings.HasPrefix(line, "#"):
			// free-form comment: fine
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad sample line: %q", ln+1, line)
			}
			name, labels, value := m[1], m[3], m[4]
			fam := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && typed[base] == "histogram" {
					fam = base
				}
			}
			if _, ok := typed[fam]; !ok {
				t.Fatalf("line %d: sample %s before its TYPE", ln+1, name)
			}
			var le string
			var rest []string
			if labels != "" {
				for _, pair := range strings.Split(labels, ",") {
					if !labelPair.MatchString(pair) {
						t.Fatalf("line %d: bad label pair %q", ln+1, pair)
					}
					if v, ok := strings.CutPrefix(pair, "le="); ok {
						le = strings.Trim(v, `"`)
					} else {
						rest = append(rest, pair)
					}
				}
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
				t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
			}
			if typed[fam] == "histogram" {
				key := fam + "|" + strings.Join(rest, ",")
				switch {
				case strings.HasSuffix(name, "_bucket"):
					if le == "" {
						t.Fatalf("line %d: bucket without le label", ln+1)
					}
					if uint64(v) < bucketCum[key] {
						t.Fatalf("line %d: bucket not cumulative", ln+1)
					}
					bucketCum[key] = uint64(v)
					if le == "+Inf" {
						infBucket[key] = uint64(v)
					}
				case strings.HasSuffix(name, "_count"):
					counts[key] = uint64(v)
				}
			}
		}
	}
	for key, c := range counts {
		if inf, ok := infBucket[key]; !ok || inf != c {
			t.Fatalf("histogram %s: +Inf bucket %d != _count %d", key, infBucket[key], c)
		}
	}
}

func scrape(t *testing.T, met *NodeMetrics, h Health, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(met, h))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointParses(t *testing.T) {
	reg := NewRegistry()
	m := NewNodeMetrics(reg, 128, 1)
	m.Requests.Add(42)
	m.Decided.Add(7)
	m.ObserveStage(StageConsensus, 800*time.Microsecond)
	m.ObserveStage(StageConsensus, 3*time.Millisecond)
	m.ObserveStage(StageAck, 12*time.Millisecond)
	m.WALFsync.Observe(2 * time.Millisecond)
	reg.Gauge("queue_depth", `peer="2"`, "outbound queue").Set(17)
	reg.CounterFunc("poll_total", "", "polled counter", func() float64 { return 1234 })
	reg.GaugeFunc("fractional", "", "non-integral value", func() float64 { return 0.375 })

	code, body := scrape(t, m, Health{}, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	validatePrometheusText(t, body)

	for _, want := range []string{
		"# TYPE rcc_stage_latency_seconds histogram",
		`rcc_stage_latency_seconds_bucket{stage="consensus",le="+Inf"} 2`,
		`rcc_stage_latency_seconds_count{stage="consensus"} 2`,
		"rcc_requests_total 42",
		"rcc_rounds_decided_total 7",
		`queue_depth{peer="2"} 17`,
		"poll_total 1234",
		"fractional 0.375",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsGolden pins the exact exposition of a small registry — the
// renderer must not drift, since downstream scrapers parse this by grammar.
func TestMetricsGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("req_total", "", "requests seen").Add(3)
	reg.Gauge("depth", `peer="1"`, "queue depth").Set(-2)
	h := reg.Histogram("lat_seconds", `stage="x"`, "latency")
	h.Observe(500 * time.Nanosecond) // bucket le=1e-06
	h.Observe(3 * time.Microsecond)  // bucket le=4e-06
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := strings.Join([]string{
		"# HELP req_total requests seen",
		"# TYPE req_total counter",
		"req_total 3",
		"# HELP depth queue depth",
		"# TYPE depth gauge",
		`depth{peer="1"} -2`,
		"# HELP lat_seconds latency",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="x",le="1e-06"} 1`,
		`lat_seconds_bucket{stage="x",le="2e-06"} 1`,
		`lat_seconds_bucket{stage="x",le="4e-06"} 2`,
	}, "\n") + "\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("golden prefix mismatch:\n--- want prefix ---\n%s--- got ---\n%s", want, got)
	}
	tail := []string{
		`lat_seconds_bucket{stage="x",le="+Inf"} 2`,
		`lat_seconds_sum{stage="x"} 3.5e-06`,
		`lat_seconds_count{stage="x"} 2`,
	}
	for _, line := range tail {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("golden missing line %q in:\n%s", line, got)
		}
	}
	validatePrometheusText(t, got)
}

func TestHealthEndpoints(t *testing.T) {
	var healthyErr, readyErr error
	health := Health{
		Healthy: func() error { return healthyErr },
		Ready:   func() error { return readyErr },
	}
	met := NewNodeMetrics(NewRegistry(), 0, -1)

	if code, body := scrape(t, met, health, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := scrape(t, met, health, "/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	readyErr = errors.New("state transfer in progress")
	if code, body := scrape(t, met, health, "/readyz"); code != 503 || !strings.Contains(body, "state transfer") {
		t.Fatalf("/readyz = %d %q, want 503 with reason", code, body)
	}
	if code, _ := scrape(t, met, health, "/healthz"); code != 200 {
		t.Fatal("/healthz must stay 200 while only readiness fails")
	}

	healthyErr = fmt.Errorf("wal: %w", errors.New("fsync failed"))
	if code, body := scrape(t, met, health, "/healthz"); code != 503 || !strings.Contains(body, "fsync failed") {
		t.Fatalf("/healthz = %d %q, want 503 with cause", code, body)
	}
}

func TestTraceAndPprofEndpoints(t *testing.T) {
	tr := NewNodeMetrics(NewRegistry(), 16, 1)
	tr.Trace(0, flight.SubPBFT, flight.KArrive, 0, 9, 1)
	tr.Trace(0, flight.SubRuntime, flight.KAck, 0, 9, 1)
	if code, body := scrape(t, tr, Health{}, "/debug/trace"); code != 200 || !strings.Contains(body, "client=9 seq=1") {
		t.Fatalf("/debug/trace = %d %q", code, body)
	}
	untraced := NewNodeMetrics(NewRegistry(), 0, -1)
	if code, body := scrape(t, untraced, Health{}, "/debug/trace"); code != 200 || !strings.Contains(body, "disabled") {
		t.Fatalf("/debug/trace (tracing off) = %d %q", code, body)
	}
	if code, body := scrape(t, untraced, Health{}, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// nextCursor extracts the trailing "next=<cursor>" line a ring dump ends
// with — the value a poller passes back as ?since=.
func nextCursor(t *testing.T, body string) uint64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^next=(\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("dump carries no next= cursor:\n%s", body)
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTraceSinceCursor(t *testing.T) {
	tr := NewNodeMetrics(NewRegistry(), 16, 1)
	tr.Trace(0, flight.SubPBFT, flight.KArrive, 0, 1, 1)
	tr.Trace(0, flight.SubPBFT, flight.KDecide, 0, 1, 1)

	code, body := scrape(t, tr, Health{}, "/debug/trace")
	if code != 200 || !strings.Contains(body, "client=1 seq=1") {
		t.Fatalf("/debug/trace = %d %q", code, body)
	}
	cur := nextCursor(t, body)
	if cur != 2 {
		t.Fatalf("cursor = %d, want 2", cur)
	}

	// Polling at the cursor returns nothing new but repeats the cursor.
	_, body = scrape(t, tr, Health{}, fmt.Sprintf("/debug/trace?since=%d", cur))
	if !strings.Contains(body, "no sampled events") || nextCursor(t, body) != cur {
		t.Fatalf("poll at head = %q", body)
	}

	// New events after the cursor show up in the incremental poll.
	tr.Trace(0, flight.SubRuntime, flight.KAck, 0, 2, 7)
	_, body = scrape(t, tr, Health{}, fmt.Sprintf("/debug/trace?since=%d", cur))
	if !strings.Contains(body, "client=2 seq=7") || strings.Contains(body, "client=1 seq=1") {
		t.Fatalf("incremental poll = %q", body)
	}

	if code, _ := scrape(t, tr, Health{}, "/debug/trace?since=banana"); code != 400 {
		t.Fatalf("bad cursor accepted: %d", code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	met := &NodeMetrics{Flight: flight.New(64)}
	fr := met.Flight
	fr.Record(2, flight.SubPBFT, flight.KViewChangeStart, 1, 3, 0, 0)
	fr.Record(2, flight.SubTransport, flight.KDemote, 0, 0, 0, 1)

	code, body := scrape(t, met, Health{}, "/debug/events")
	if code != 200 || !strings.Contains(body, "view_change_start") || !strings.Contains(body, "demote") {
		t.Fatalf("/debug/events = %d %q", code, body)
	}
	cur := nextCursor(t, body)

	// Incremental poll: only events after the cursor.
	fr.Record(2, flight.SubTransport, flight.KReconnect, 0, 0, 0, 1)
	_, body = scrape(t, met, Health{}, fmt.Sprintf("/debug/events?since=%d", cur))
	if !strings.Contains(body, "reconnect") || strings.Contains(body, "view_change_start") {
		t.Fatalf("incremental events poll = %q", body)
	}

	// Binary format parses back through the flight codec.
	_, body = scrape(t, met, Health{}, "/debug/events?format=bin")
	snap, err := flight.DecodeBinary(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 3 || snap.Events[2].Kind != flight.KReconnect {
		t.Fatalf("binary events dump = %+v", snap)
	}

	if code, _ := scrape(t, met, Health{}, "/debug/events?since=nope"); code != 400 {
		t.Fatalf("bad cursor accepted: %d", code)
	}
	if _, body := scrape(t, nil, Health{}, "/debug/events"); !strings.Contains(body, "disabled") {
		t.Fatalf("nil recorder dump = %q", body)
	}
}

func TestRuntimeSelfMetrics(t *testing.T) {
	reg := NewRegistry()
	code, body := scrape(t, NewNodeMetrics(reg, 0, -1), Health{}, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	validatePrometheusText(t, body)
	for _, want := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_gc_pause_p99_seconds", "go_gomaxprocs", "rcc_build_info{goversion="} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Goroutine count and heap in use must be live, non-zero values.
	for _, gauge := range []string{"go_goroutines", "go_heap_inuse_bytes"} {
		m := regexp.MustCompile(`(?m)^` + gauge + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Errorf("%s sample line missing", gauge)
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %q, want positive number", gauge, m[1])
		}
	}
}
