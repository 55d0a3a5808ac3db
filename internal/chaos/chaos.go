package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/statesync"
	"repro/internal/types"
)

// errInjectedFsync is the disk error the FsyncFail episode arms.
var errInjectedFsync = errors.New("chaos: injected fsync error")

// tornTailBytes is how much of the active WAL segment a Torn episode rips
// off at the kill — enough to land mid-record at any realistic record size.
const tornTailBytes = 40

// Report is one chaos run's outcome. Failures empty means the run passed.
type Report struct {
	Seed     int64
	Nodes    int
	Clients  int
	Duration time.Duration
	Schedule Schedule

	Acked     int          // transactions acknowledged to clients
	Committed int          // distinct heights observed committed
	Height    uint64       // converged final height
	HeadHash  types.Digest // converged head hash
	Restarts  int
	Wipes     int

	// State-transfer activity across all incarnations.
	Installs       uint64
	InstalledSnaps uint64
	CkptTargets    uint64 // fetch targets that reached a checkpoint, not a live head
	FsyncFails     uint64
	TornWrites     uint64

	ClientsDrained int
	Converged      bool

	Failures []string // invariant violations; empty = pass
	Warnings []string // notable but non-fatal observations
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

// Summary renders the verdict in a few lines.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	out := fmt.Sprintf(
		"chaos %s: seed=%d nodes=%d clients=%d duration=%s\n"+
			"  acked=%d committed-heights=%d final-height=%d converged=%v drained=%d/%d\n"+
			"  restarts=%d wipes=%d installs=%d (snapshots=%d) checkpoint-targets=%d\n"+
			"  fsync-faults=%d torn-writes=%d\n",
		verdict, r.Seed, r.Nodes, r.Clients, r.Duration,
		r.Acked, r.Committed, r.Height, r.Converged, r.ClientsDrained, r.Clients,
		r.Restarts, r.Wipes, r.Installs, r.InstalledSnaps, r.CkptTargets,
		r.FsyncFails, r.TornWrites)
	for _, f := range r.Failures {
		out += "  FAIL: " + f + "\n"
	}
	for _, w := range r.Warnings {
		out += "  warn: " + w + "\n"
	}
	return out
}

// action is one timed step of the fault driver.
type action struct {
	at   time.Duration
	desc string
	fn   func(rep *Report)
}

// Run executes one chaos run end to end: boot, load, scheduled faults,
// heal, reconvergence, verdict. The returned error covers harness-level
// breakage (cluster failed to boot); protocol invariant violations land in
// Report.Failures.
func Run(cfg Config) (*Report, error) {
	cfg.defaults()
	sched := Generate(ScheduleConfig{Nodes: cfg.Nodes, Duration: cfg.Duration, Seed: cfg.Seed})
	if cfg.Schedule != nil {
		sched = *cfg.Schedule
	}
	rep := &Report{
		Seed: cfg.Seed, Nodes: cfg.Nodes, Clients: cfg.Nodes,
		Duration: cfg.Duration, Schedule: sched,
	}

	mon := newMonitor(cfg.Nodes)
	cluster, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	cluster.StartClients(mon)

	// The monitor sweeps continuously so every committed block is captured
	// while some executing replica still materializes it.
	monDone := make(chan struct{})
	monStop := make(chan struct{})
	go func() {
		defer close(monDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-tick.C:
				mon.scan(cluster)
			}
		}
	}()

	// Drive the schedule in real time. Each episode contributes an apply
	// action and a heal action; the driver sleeps between them.
	runActions(cfg, cluster, rep, buildActions(cfg, cluster, sched))

	// Heal phase: stop new load, restore every node and link, and let the
	// survivors drag the stragglers back to one head.
	cluster.StopSubmission()
	for i := 0; i < cfg.Nodes; i++ {
		cluster.nodes[i].fp.HealFsync()
		cluster.Rejoin(i)
		if !cluster.Up(i) {
			restartOrWipe(cluster, i, rep)
		}
	}
	rep.ClientsDrained = cluster.DrainClients(20 * time.Second)

	rep.Converged = waitConverged(cluster, rep, 45*time.Second)

	close(monStop)
	<-monDone
	mon.scan(cluster) // pick up the final blocks before the verdict
	verdict(cluster, mon, rep)
	if !rep.Passed() {
		dumpArtifacts(cfg, cluster, mon, rep)
	}
	return rep, nil
}

// buildActions flattens the schedule into a sorted action timeline.
func buildActions(cfg Config, cluster *Cluster, sched Schedule) []action {
	var acts []action
	for _, ev := range sched.Events {
		ev := ev
		switch ev.Kind {
		case Kill:
			acts = append(acts,
				action{ev.At, fmt.Sprintf("kill node %d", ev.Node), func(rep *Report) {
					cluster.Kill(ev.Node)
				}},
				action{ev.End, fmt.Sprintf("restart node %d", ev.Node), func(rep *Report) {
					restartOrWipe(cluster, ev.Node, rep)
				}})
		case Wipe:
			acts = append(acts,
				action{ev.At, fmt.Sprintf("kill node %d (pre-wipe)", ev.Node), func(rep *Report) {
					cluster.Kill(ev.Node)
				}},
				action{ev.End, fmt.Sprintf("wipe+restart node %d", ev.Node), func(rep *Report) {
					if err := cluster.Wipe(ev.Node); err != nil {
						rep.Failures = append(rep.Failures, err.Error())
						return
					}
					restartOrWipe(cluster, ev.Node, rep)
				}})
		case Torn:
			acts = append(acts,
				action{ev.At, fmt.Sprintf("torn-write kill node %d", ev.Node), func(rep *Report) {
					cluster.nodes[ev.Node].fp.TearOnCrash(tornTailBytes)
					cluster.Kill(ev.Node)
				}},
				action{ev.End, fmt.Sprintf("restart node %d (torn tail)", ev.Node), func(rep *Report) {
					restartOrWipe(cluster, ev.Node, rep)
				}})
		case FsyncFail:
			acts = append(acts,
				action{ev.At, fmt.Sprintf("fsync-fail node %d", ev.Node), func(rep *Report) {
					cluster.nodes[ev.Node].fp.FailFsync(errInjectedFsync)
				}},
				action{ev.End, fmt.Sprintf("kill+heal+restart node %d", ev.Node), func(rep *Report) {
					cluster.Kill(ev.Node)
					cluster.nodes[ev.Node].fp.HealFsync()
					restartOrWipe(cluster, ev.Node, rep)
				}})
		case Partition:
			acts = append(acts,
				action{ev.At, fmt.Sprintf("partition node %d", ev.Node), func(rep *Report) {
					cluster.Isolate(ev.Node)
				}},
				action{ev.End, fmt.Sprintf("heal node %d", ev.Node), func(rep *Report) {
					cluster.Rejoin(ev.Node)
				}})
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// runActions plays the timeline in real time, then sleeps out the
// remainder of the configured duration (the settle tail).
func runActions(cfg Config, cluster *Cluster, rep *Report, acts []action) {
	start := time.Now()
	for _, a := range acts {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		cfg.logf("chaos: %s (t=%s)", a.desc, time.Since(start).Round(time.Millisecond))
		a.fn(rep)
	}
	if d := cfg.Duration - time.Since(start); d > 0 {
		time.Sleep(d)
	}
}

// restartOrWipe restarts a node; when the restart itself fails — disk
// state the store refuses — that is a robustness finding, and the harness
// falls back to wipe+restart so the run can still reach a verdict.
func restartOrWipe(cluster *Cluster, i int, rep *Report) {
	err := cluster.Restart(i)
	if err == nil {
		return
	}
	rep.Failures = append(rep.Failures, fmt.Sprintf("node %d restart rejected its own disk state: %v", i, err))
	if werr := cluster.Wipe(i); werr == nil {
		_ = cluster.Restart(i)
	}
}

// totals sums lifetime statesync counters plus the running incarnations'.
func (c *Cluster) totals() (st statesync.Stats, restarts, wipes int) {
	for _, n := range c.nodes {
		n.mu.Lock()
		st.Installs += n.syncStats.Installs
		st.InstalledSnaps += n.syncStats.InstalledSnaps
		st.CkptTargets += n.syncStats.CkptTargets
		if n.up {
			if sy := n.rep.StateSync(); sy != nil {
				live := sy.Stats()
				st.Installs += live.Installs
				st.InstalledSnaps += live.InstalledSnaps
				st.CkptTargets += live.CkptTargets
			}
		}
		restarts += n.restarts
		wipes += n.wipes
		n.mu.Unlock()
	}
	return st, restarts, wipes
}
