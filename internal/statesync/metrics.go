package statesync

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// RegisterMetrics exposes the manager's transfer counters in reg, polled at
// scrape time — state transfers become visible in /metrics mid-flight
// instead of only in a one-off log line after the fact.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	rl := fmt.Sprintf(`replica="%d"`, m.cfg.Self)
	stat := func(f func(Stats) uint64) func() float64 {
		return func() float64 { return float64(f(m.Stats())) }
	}
	reg.CounterFunc("statesync_probes_total", rl, "probe broadcasts sent", stat(func(s Stats) uint64 { return s.Probes }))
	reg.CounterFunc("statesync_offers_served_total", rl, "state offers answered to peers", stat(func(s Stats) uint64 { return s.OffersServed }))
	reg.CounterFunc("statesync_offers_rejected_total", rl, "offers discarded for failing f+1 attestation", stat(func(s Stats) uint64 { return s.OffersRejected }))
	reg.CounterFunc("statesync_chunks_served_total", rl, "snapshot chunks served to peers", stat(func(s Stats) uint64 { return s.ChunksServed }))
	reg.CounterFunc("statesync_ranges_served_total", rl, "block ranges served to peers", stat(func(s Stats) uint64 { return s.RangesServed }))
	reg.CounterFunc("statesync_chunks_fetched_total", rl, "snapshot chunks accepted from peers", stat(func(s Stats) uint64 { return s.ChunksFetched }))
	reg.CounterFunc("statesync_blocks_fetched_total", rl, "blocks accepted from peers", stat(func(s Stats) uint64 { return s.BlocksFetched }))
	reg.CounterFunc("statesync_bytes_fetched_total", rl, "snapshot bytes accepted from peers", stat(func(s Stats) uint64 { return s.BytesFetched }))
	reg.CounterFunc("statesync_range_bytes_total", rl, "encoded block bytes accepted from peers", stat(func(s Stats) uint64 { return s.RangeBytes }))
	reg.CounterFunc("statesync_chunks_refused_total", rl, "chunks refused (size or digest mismatch)", stat(func(s Stats) uint64 { return s.ChunksRefused }))
	reg.CounterFunc("statesync_ranges_refused_total", rl, "ranges refused (chain-link or proof mismatch)", stat(func(s Stats) uint64 { return s.RangesRefused }))
	reg.CounterFunc("statesync_source_rotates_total", rl, "source failures that forced rotation", stat(func(s Stats) uint64 { return s.SourceRotates }))
	reg.CounterFunc("statesync_installs_total", rl, "successful installs", stat(func(s Stats) uint64 { return s.Installs }))
	reg.CounterFunc("statesync_install_failed_total", rl, "installs that errored", stat(func(s Stats) uint64 { return s.InstallFailed }))
	reg.CounterFunc("statesync_snapshots_installed_total", rl, "installs that included a snapshot (vs range-only)", stat(func(s Stats) uint64 { return s.InstalledSnaps }))
	reg.CounterFunc("statesync_ckpt_targets_total", rl, "fetch targets that reach a checkpoint, not a live head", stat(func(s Stats) uint64 { return s.CkptTargets }))
	reg.CounterFunc("statesync_ckpt_no_frontier_total", rl, "snapshots recorded with no boundary frontier (offers name no checkpoint)", stat(func(s Stats) uint64 { return s.CkptNoFrontier }))
	reg.CounterFunc("statesync_transfer_seconds_total", rl, "wall time spent in successful transfers", func() float64 {
		return float64(m.Stats().TransferNanos) / 1e9
	})
	// One series per refusal cause, same codes the flight recorder's
	// offer_reject events carry — a spike here and a timeline entry name the
	// identical failure.
	for c := flight.RejectNoQuorum; c <= flight.RejectOvercount; c++ {
		cause := c
		reg.CounterFunc("statesync_reject_cause_total",
			fmt.Sprintf(`reason="%s",replica="%d"`, cause, m.cfg.Self),
			"refusals by cause (attestation, chunk, or range verification)",
			stat(func(s Stats) uint64 { return s.RejectCauses[cause] }))
	}
	reg.GaugeFunc("statesync_synced", rl, "1 once the replica is verified at the cluster head", func() float64 {
		if m.Synced() {
			return 1
		}
		return 0
	})
}
