// Command rccbench regenerates the RCC paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; where the paper
// states a value, the table title quotes it for comparison.
//
// Usage:
//
//	rccbench -exp all        # every experiment except chaos
//	rccbench -exp fig8a      # one experiment
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
	{"fig1left", infallible(func() *bench.Table { return bench.Fig1(20) })},
	{"fig1right", infallible(func() *bench.Table { return bench.Fig1(400) })},
	{"fig6", infallible(bench.Fig6)},
	{"fig7left", infallible(bench.Fig7Left)},
	{"fig7right", infallible(bench.Fig7Right)},
	{"fig8a", infallible(bench.Fig8a)},
	{"fig8b", infallible(bench.Fig8b)},
	{"fig8c", infallible(bench.Fig8c)},
	{"fig8d", infallible(bench.Fig8d)},
	{"fig8e", infallible(bench.Fig8e)},
	{"fig8f", infallible(bench.Fig8f)},
	{"fig8g", infallible(bench.Fig8g)},
	{"fig8h", infallible(bench.Fig8h)},
	{"fig9", infallible(bench.Fig9)},
	{"fig10", func() (*bench.Table, error) { return bench.Fig10(bench.DefaultFig10()) }},
	{"timeline", bench.Timeline},
	{"summary", infallible(bench.Summary)},
	{"validate", bench.Validate},
}

func infallible(f func() *bench.Table) func() (*bench.Table, error) {
	return func() (*bench.Table, error) { return f(), nil }
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
		for _, e := range experiments {
			fmt.Println(e.id)
		}
		fmt.Println("chaos")
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
		t, rep, err := bench.Chaos(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
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
