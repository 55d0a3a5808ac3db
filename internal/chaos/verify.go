package chaos

// Post-run verification and failure artifacts. The invariants, in the
// order they are checked:
//
//  1. Reconvergence: with every fault healed and every node restarted,
//     all replicas reach one height with one head hash and one execution
//     state digest. Convergence is what makes the remaining checks sound —
//     identical heads over a collision-resistant hash chain mean identical
//     logical chains.
//  2. The converged head matches the chain the monitor accumulated, tying
//     the live observations to the final state.
//  3. Zero acked-transaction loss: every transaction a client accepted
//     (f+1 matching replies) appears on the chain.
//  4. No duplicate commits: no (client, seq) appears at two heights.
//  5. No mid-run block conflicts (recorded by the monitor as they happen).
//
// A failed run leaves every incarnation's flight ring and the merged
// cluster timeline (with detected anomalies) in Config.ArtifactDir.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/types"
)

// convSample is one node's head observation.
type convSample struct {
	height uint64
	head   types.Digest
	state  types.Digest
	synced bool
}

// sampleHeads reads every node's head; ok is false unless all nodes run.
func sampleHeads(c *Cluster) (out []convSample, ok bool) {
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.up {
			n.mu.Unlock()
			return nil, false
		}
		s := convSample{
			height: n.rep.Ledger().Height(),
			head:   n.rep.Ledger().HeadHash(),
			state:  n.rep.StateDigest(),
		}
		if sy := n.rep.StateSync(); sy != nil {
			s.synced = sy.Synced()
		}
		n.mu.Unlock()
		out = append(out, s)
	}
	return out, true
}

// waitConverged polls until every node reports the same height, head hash,
// and state digest, filling rep.Height/HeadHash on success.
func waitConverged(c *Cluster, rep *Report, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s, ok := sampleHeads(c); ok && len(s) > 0 {
			agree := true
			for _, x := range s[1:] {
				if x.height != s[0].height || x.head != s[0].head || x.state != s[0].state {
					agree = false
					break
				}
			}
			if agree {
				rep.Height = s[0].height
				rep.HeadHash = s[0].head
				return true
			}
		}
		time.Sleep(150 * time.Millisecond)
	}
	return false
}

// chainLen returns how many heights the monitor observed committed.
func (m *monitor) chainLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.chain)
}

// hashAt returns the observed block hash at height h.
func (m *monitor) hashAt(h uint64) (types.Digest, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.chain[h]
	if !ok {
		return types.Digest{}, false
	}
	return rec.hash, true
}

// verdict fills the report from the monitor and cluster state.
func verdict(c *Cluster, mon *monitor, rep *Report) {
	rep.Acked = mon.ackedCount()
	rep.Committed = mon.chainLen()

	st, restarts, wipes := c.totals()
	rep.Restarts, rep.Wipes = restarts, wipes
	rep.Installs = st.Installs
	rep.InstalledSnaps = st.InstalledSnaps
	rep.CkptTargets = st.CkptTargets
	for _, n := range c.nodes {
		rep.FsyncFails += n.fp.FsyncFails.Load()
		rep.TornWrites += n.fp.TornWrites.Load()
	}

	rep.Failures = append(rep.Failures, mon.takeViolations()...)

	if !rep.Converged {
		rep.Failures = append(rep.Failures, "cluster did not reconverge after healing (heights/heads/state digests still differ)")
	} else if rep.Height > 0 {
		// Height is a block count; the head block sits at index Height-1.
		if h, ok := mon.hashAt(rep.Height - 1); !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf("converged head block %d never observed by the monitor", rep.Height-1))
		} else if h != rep.HeadHash {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"converged head %x does not match the monitored chain %x at block %d", rep.HeadHash[:8], h[:8], rep.Height-1))
		}
	}

	if lost := mon.checkLoss(); len(lost) > 0 {
		msg := fmt.Sprintf("%d acked transactions missing from the chain", len(lost))
		for i, k := range lost {
			if i == 5 {
				msg += ", ..."
				break
			}
			msg += fmt.Sprintf(" (client %d seq %d)", k.client, k.seq)
		}
		rep.Failures = append(rep.Failures, msg)
	}
	rep.Failures = append(rep.Failures, mon.checkDuplicates()...)

	if rep.Acked == 0 {
		rep.Failures = append(rep.Failures, "no transaction was ever acknowledged — the cluster made no progress under faults")
	}

	if rep.CkptTargets == 0 && rep.Wipes > 0 {
		rep.Warnings = append(rep.Warnings, "no state transfer used a checkpoint target (healed via live-head offers)")
	}
	if rep.Wipes > 0 && rep.InstalledSnaps == 0 {
		rep.Warnings = append(rep.Warnings, "nodes were wiped but no snapshot install was recorded")
	}

	// Surface flight-recorder anomalies even on success: a pass with a
	// view-change storm in it is worth a look.
	snaps := c.flightSnapshots()
	if anoms := flight.DetectAnomalies(flight.Merge(snaps)); len(anoms) > 0 {
		for i, a := range anoms {
			if i == 8 {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf("(%d more anomalies)", len(anoms)-i))
				break
			}
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("flight anomaly: %s: %s", a.Title, a.Detail))
		}
	}
}

// flightSnapshots gathers every incarnation's ring: the dead ones captured
// at each kill plus the running ones' live dumps.
func (c *Cluster) flightSnapshots() []flight.Snapshot {
	var snaps []flight.Snapshot
	for _, n := range c.nodes {
		n.mu.Lock()
		snaps = append(snaps, n.deadSnaps...)
		if n.up && n.met != nil && n.met.Flight != nil {
			snaps = append(snaps, n.met.Flight.Dump(0))
		}
		n.mu.Unlock()
	}
	return snaps
}

// dumpArtifacts persists the black boxes of a failed run: each ring as a
// flight.bin-format dump plus the merged, anomaly-annotated timeline.
func dumpArtifacts(cfg Config, c *Cluster, mon *monitor, rep *Report) {
	if cfg.ArtifactDir == "" {
		return
	}
	if err := os.MkdirAll(cfg.ArtifactDir, 0o755); err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("artifact dir: %v", err))
		return
	}
	snaps := c.flightSnapshots()
	for i, snap := range snaps {
		path := filepath.Join(cfg.ArtifactDir, fmt.Sprintf("chaos-ring-%02d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			continue
		}
		_ = flight.EncodeBinary(f, snap)
		f.Close()
	}
	tl := flight.Merge(snaps)
	anoms := flight.DetectAnomalies(tl)
	if f, err := os.Create(filepath.Join(cfg.ArtifactDir, "chaos-timeline.txt")); err == nil {
		fmt.Fprintf(f, "%s\n%s\n", rep.Summary(), rep.Schedule)
		flight.WriteTimeline(f, tl, anoms)
		f.Close()
	}
	rep.Warnings = append(rep.Warnings, "artifacts written to "+cfg.ArtifactDir)
}
