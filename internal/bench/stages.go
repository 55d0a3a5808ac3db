package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// Stages runs a 4-replica durable RCC cluster under a pipelined client load
// and reports the per-stage latency breakdown the observability layer
// collects: where a transaction's time goes between arriving at a replica
// and being acknowledged. The closing row is the client-observed end-to-end
// latency for the same run, so the stage sums can be read against what a
// caller actually waited.
func Stages() (*Table, error) {
	const (
		n       = 4
		clients = 16
		perCli  = 32
	)

	dir, err := os.MkdirTemp("", "rcc-stages-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	cluster, err := core.NewCluster(core.Options{
		N:         n,
		Protocol:  core.RCC,
		BatchSize: 1,
		Window:    8,
		DataDir:   dir,
		Metrics:   met,
	})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()

	// Closed-loop clients, one request in flight each: the e2e histogram
	// then measures true per-request latency, not client-side queueing.
	cls := make([]*core.Client, clients)
	for i := range cls {
		cls[i] = cluster.NewClient(0)
	}
	e2e := &obs.Histogram{}
	errs := make(chan error, clients)
	for _, cl := range cls {
		go func(cl *core.Client) {
			wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: ycsb.DefaultRecords, Seed: int64(cl.ID())})
			for i := 0; i < perCli; i++ {
				start := time.Now()
				if _, err := cl.Execute(wl.Next(cl.ID()).Op, 30*time.Second); err != nil {
					errs <- fmt.Errorf("stages: %w", err)
					return
				}
				e2e.Observe(time.Since(start))
			}
			errs <- nil
		}(cl)
	}
	for range cls {
		if err := <-errs; err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:     "stages",
		Title:  "per-stage latency breakdown (RCC n=4, async journal, in-process transport)",
		Header: []string{"stage", "count", "p50-ms", "p95-ms", "p99-ms", "max-ms"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	row := func(name string, s obs.HistSnapshot) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(s.Count), ms(s.P50), ms(s.P95), ms(s.P99), ms(s.Max),
		})
	}
	for _, st := range obs.Stages() {
		row(st.String(), met.Stage(st).Snapshot())
	}
	row("client-e2e", e2e.Snapshot())
	return t, nil
}
