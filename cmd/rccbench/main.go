// Command rccbench runs the experiments that drive the program's own state
// machines and prints each as a table. REPRODUCTION.md maps every experiment
// to the paper claim it backs.
//
// Usage:
//
//	rccbench -exp all        # every experiment except chaos
//	rccbench -exp fig6       # one experiment
//	rccbench -exp fig10      # simnet failure timeline (slower)
//	rccbench -exp chaos      # randomized fault harness over live TCP (slow)
//	rccbench -list           # list experiment IDs
//
// The chaos experiment takes extra flags: -seed, -nodes, -duration, -wan,
// and -artifacts (where a failed run leaves its flight rings and merged
// timeline). It exits non-zero when an invariant is violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
)

// experiments is every experiment -exp all runs, in -list order. chaos is
// not listed: it has its own flags and exit code and runs for minutes.
var experiments = []struct {
	id  string
	run func() (*bench.Table, error)
}{
	{"fig6", func() (*bench.Table, error) { return bench.Fig6(), nil }},
	{"scaling", bench.Scaling},
	{"fig10", func() (*bench.Table, error) { return bench.Fig10(bench.DefaultFig10()) }},
	{"timeline", bench.Timeline},
}

// ids is what -list prints: every experiment, then chaos.
func ids() []string {
	out := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		out = append(out, e.id)
	}
	return append(out, "chaos")
}

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list)")
	list := flag.Bool("list", false, "list experiment IDs")
	seed := flag.Int64("seed", 0, "chaos: fault schedule seed (same seed, same schedule)")
	nodes := flag.Int("nodes", 4, "chaos: cluster size (4-7)")
	duration := flag.Duration("duration", 5*time.Minute, "chaos: run length")
	wan := flag.Bool("wan", false, "chaos: apply the five-region WAN latency profile")
	artifacts := flag.String("artifacts", "", "chaos: directory for failure artifacts")
	verbose := flag.Bool("v", false, "chaos: stream fault actions to stderr")
	flag.Parse()

	if *list {
		for _, id := range ids() {
			fmt.Println(id)
		}
		return
	}

	if *exp == "chaos" {
		if *duration <= 0 {
			fmt.Fprintln(os.Stderr, "chaos: -duration must be positive")
			os.Exit(2)
		}
		cfg := chaos.Config{
			Seed: *seed, Nodes: *nodes, Duration: *duration,
			WAN: *wan, ArtifactDir: *artifacts,
		}
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Summary())
		if !rep.Passed() {
			os.Exit(1)
		}
		return
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
