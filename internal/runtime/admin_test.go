package runtime

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// TestAdminHealthFlipsOnDurabilityFailure wires a replica's admin endpoints
// exactly as cmd/rccnode does and kills its WAL under load: /healthz must
// flip 200 → 503 with the sticky durability error as the body, and the
// rcc_durability_healthy gauge in /metrics must drop to 0 — the operator's
// two views of the same failure.
func TestAdminHealthFlipsOnDurabilityFailure(t *testing.T) {
	base := t.TempDir()
	params, err := quorum.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 64)
	hub := transport.NewMemory()
	reps := make([]*Replica, 4)
	for i := 0; i < 4; i++ {
		reps[i], err = New(Config{
			ID:             types.ReplicaID(i),
			Params:         params,
			Machine:        pbft.New(pbft.Config{BatchSize: 1, Window: 4, Metrics: met}),
			App:            ycsb.NewStore(1000),
			DataDir:        filepath.Join(base, "replica-"+string(rune('0'+i))),
			Journaling:     JournalOptions{Sync: wal.SyncGroup},
			ReplyToClients: true,
			Metrics:        met,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		reps[i].Attach(hub.AttachReplica(types.ReplicaID(i), reps[i]))
	}
	for _, r := range reps {
		r.Run()
	}
	defer stopAll(reps, hub)

	handler := obs.NewHandler(met, obs.Health{
		Healthy: reps[3].DurabilityErr,
		Ready:   reps[3].DurabilityErr,
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthy replica: /healthz = %d (%q), want 200", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("healthy replica: /readyz = %d, want 200", code)
	}

	// The disk "dies"; decided blocks now fail through the committer and
	// set the sticky error.
	reps[3].Durable().WAL().Close()
	c := runClient(t, hub, params, 1, 3)
	waitFor(t, 15*time.Second, func() bool { return len(c.Completions()) == 3 })
	waitFor(t, 10*time.Second, func() bool { return reps[3].DurabilityErr() != nil })

	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("after WAL death: /healthz = %d (%q), want 503", code, body)
	}
	if !strings.Contains(body, reps[3].DurabilityErr().Error()) {
		t.Fatalf("/healthz body %q does not carry the durability error %q", body, reps[3].DurabilityErr())
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("after WAL death: /readyz = %d, want 503", code)
	}

	_, metrics := get("/metrics")
	if !strings.Contains(metrics, `rcc_durability_healthy{replica="3"} 0`) {
		t.Fatalf("/metrics does not show replica 3 unhealthy:\n%s", grepLines(metrics, "rcc_durability_healthy"))
	}
	if !strings.Contains(metrics, `rcc_durability_healthy{replica="0"} 1`) {
		t.Fatalf("/metrics lost replica 0's healthy gauge:\n%s", grepLines(metrics, "rcc_durability_healthy"))
	}
}

// TestLifecycleTraceAttribution runs four RCC replicas that share one
// catalog at sample 1, as an in-process cluster does, and reads the
// lifecycle stamps back through /debug/trace: each replica's stamps for a
// committed transaction are grouped under that replica, and none of them
// lands in the protocol-event ring.
func TestLifecycleTraceAttribution(t *testing.T) {
	params, err := quorum.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 1)
	hub := transport.NewMemory()
	reps := make([]*Replica, 4)
	for i := range reps {
		reps[i], err = New(Config{
			ID:             types.ReplicaID(i),
			Params:         params,
			Machine:        rcc.New(rcc.Config{BatchSize: 1, Window: 4, Metrics: met}),
			App:            ycsb.NewStore(1000),
			ReplyToClients: true,
			Metrics:        met,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		reps[i].Attach(hub.AttachReplica(types.ReplicaID(i), reps[i]))
	}
	for _, r := range reps {
		r.Run()
	}
	defer stopAll(reps, hub)

	c := runClient(t, hub, params, 1, 3)
	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == 3 })
	for _, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Executed() >= 3 })
	}

	srv := httptest.NewServer(obs.NewHandler(met, obs.Health{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for i := range reps {
		line := grepLines(body, fmt.Sprintf("r%d client=1 seq=1 ", i))
		for _, point := range []string{"arrive+", "decide+", "execute+", "ack+"} {
			if !strings.Contains(line, point) {
				t.Fatalf("replica %d: no %s stamp for (1, 1) under r%d:\n%s", i, point, i, body)
			}
		}
		if strings.Index(line, "execute+") > strings.Index(line, "ack+") {
			t.Fatalf("replica %d: ack stamped before execute for (1, 1):\n%s", i, line)
		}
	}
	for _, e := range met.Flight.Dump(0).Events {
		if e.Kind >= flight.KArrive && e.Kind <= flight.KAck {
			t.Fatalf("lifecycle stamp %v recorded in the protocol-event ring", e.Kind)
		}
	}
}

// grepLines filters s to lines containing sub, for focused failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
