package bench

import (
	"fmt"

	"repro/internal/chaos"
)

// Chaos runs the randomized fault harness over a live loopback-TCP cluster
// and reports the outcome as a table plus the full report (for the caller's
// exit code and failure listing). The schedule is a pure function of the
// seed: rerunning with the same seed and duration replays the same faults.
func Chaos(cfg chaos.Config) (*Table, *chaos.Report, error) {
	rep, err := chaos.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	verdict := "PASS"
	if !rep.Passed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(rep.Failures))
	}
	t := &Table{
		ID: "chaos",
		Title: fmt.Sprintf("chaos harness: randomized kill/wipe/partition/disk faults over %d live TCP replicas",
			rep.Nodes),
		Header: []string{"seed", "duration", "events", "acked", "height", "restarts", "wipes",
			"installs", "attested-rejoins", "verdict"},
		Rows: [][]string{{
			fmt.Sprintf("%d", rep.Seed),
			rep.Duration.String(),
			fmt.Sprintf("%d", len(rep.Schedule.Events)),
			fmt.Sprintf("%d", rep.Acked),
			fmt.Sprintf("%d", rep.Height),
			fmt.Sprintf("%d", rep.Restarts),
			fmt.Sprintf("%d", rep.Wipes),
			fmt.Sprintf("%d", rep.Installs),
			fmt.Sprintf("%d", rep.AttestedRejoins),
			verdict,
		}},
	}
	return t, rep, nil
}
