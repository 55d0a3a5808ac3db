// Command benchgate turns `go test -bench` output into a machine-readable
// JSON summary and gates CI on performance regressions against a committed
// baseline.
//
// Emit mode — parse bench output files (later files override earlier ones
// for the same benchmark, so a short full-suite smoke pass can be refined
// by a longer run of the gated benchmarks):
//
//	go test -bench=. -benchtime=1x -run='^$' -benchmem ./... | tee bench.txt
//	go run ./scripts/benchgate -emit -out BENCH_ci.json bench.txt
//
// Gate mode — compare against the committed baseline and fail (exit 1) on
// a >25% ns/op regression in any benchmark matching -gate-pattern:
//
//	go run ./scripts/benchgate -gate -baseline BENCH_baseline.json \
//	    -current BENCH_ci.json -max-regress 0.25
//
// Pair gates compare two variants of one benchmark within the CURRENT run,
// so they need no baseline entry and hold on whatever machine runs them.
// Each pairs every gated benchmark ending in "/<fast>" with its "/<slow>"
// sibling and fails when fast is not at least a floor times faster. A flag
// set to 0 disables its gate; an enabled gate that finds no pair fails,
// since it would be checking nothing.
//
//	-max-overhead  /live vs /nop: live observability instrumentation costs
//	               at most this fraction, i.e. a floor of 1/(1+max)
//	               (BenchmarkObsOverhead, BenchmarkFlightRecord)
//
// Refreshing the baseline: benchmark numbers are machine-bound, so the
// baseline must come from the SAME runner class that gates. The CI bench
// job uploads BENCH_ci.json with `if: always()` — download the artifact
// from any run on that runner class (a run this gate itself failed works,
// which is exactly how a baseline seeded on another machine gets
// corrected), commit it as BENCH_baseline.json, and the gate compares
// like-for-like from then on. Benchmark names are normalized without the
// -GOMAXPROCS suffix so runner core counts do not break matching.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed numbers.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the BENCH_ci.json / BENCH_baseline.json schema.
type Summary struct {
	Format     int               `json:"format"`
	Go         string            `json:"go"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		emit       = flag.Bool("emit", false, "parse bench output files into -out JSON")
		gate       = flag.Bool("gate", false, "compare -current against -baseline")
		out        = flag.String("out", "BENCH_ci.json", "emit: output path")
		baseline   = flag.String("baseline", "BENCH_baseline.json", "gate: committed baseline path")
		current    = flag.String("current", "BENCH_ci.json", "gate: freshly emitted summary path")
		maxRegress = flag.Float64("max-regress", 0.25, "gate: fail when ns/op exceeds baseline by more than this fraction")
		maxOverhd  = flag.Float64("max-overhead", 0, "gate: fail when a /live variant exceeds its /nop sibling by more than this fraction, both from the current run (0 disables)")
		pattern    = flag.String("gate-pattern", `^Benchmark(AsyncJournal|Codec|Broadcast|Obs|FlightRecord|Exec|Auth)`, "gate: regexp selecting the benchmarks that block the build")
	)
	flag.Parse()
	switch {
	case *emit == *gate:
		fatal("exactly one of -emit or -gate is required")
	case *emit:
		runEmit(*out, flag.Args())
	default:
		runGate(*baseline, *current, *pattern, *maxRegress, pairGates(*maxOverhd))
	}
}

// pairGate is one same-run floor: every gated benchmark ending in "/<fast>"
// must be at least floor times faster than its "/<slow>" sibling.
type pairGate struct {
	flag       string
	fast, slow string
	floor      float64
}

// pairGates maps the pair-gate flags onto floors, leaving out every gate
// whose flag is 0.
func pairGates(maxOverhead float64) []pairGate {
	overheadFloor := 0.0
	if maxOverhead > 0 {
		overheadFloor = 1 / (1 + maxOverhead)
	}
	var gates []pairGate
	for _, g := range []pairGate{
		{"max-overhead", "live", "nop", overheadFloor},
	} {
		if g.floor > 0 {
			gates = append(gates, g)
		}
	}
	return gates
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

func runEmit(out string, files []string) {
	if len(files) == 0 {
		fatal("emit: no bench output files given")
	}
	sum := Summary{Format: 1, Go: runtime.Version(), Benchmarks: map[string]Result{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal("emit: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			name, res, ok := parseLine(line)
			if ok {
				sum.Benchmarks[name] = res // later files override
			}
		}
	}
	if len(sum.Benchmarks) == 0 {
		fatal("emit: no benchmark lines found in %v", files)
	}
	buf, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		fatal("emit: %v", err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fatal("emit: %v", err)
	}
	fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(sum.Benchmarks), out)
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkFoo/case-8  \t 1234 \t 5678 ns/op \t 31.0 records/fsync \t 647 B/op \t 13 allocs/op
func parseLine(line string) (string, Result, bool) {
	fields := strings.Split(line, "\t")
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := procSuffix.ReplaceAllString(strings.TrimSpace(fields[0]), "")
	iters, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters}
	for _, f := range fields[2:] {
		parts := strings.Fields(f)
		if len(parts) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			continue
		}
		switch parts[1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[parts[1]] = v
		}
	}
	if res.NsPerOp == 0 {
		return "", Result{}, false
	}
	return name, res, true
}

func load(path string) Summary {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("gate: %v", err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		fatal("gate: %s: %v", path, err)
	}
	return sum
}

func runGate(basePath, curPath, pattern string, maxRegress float64, gates []pairGate) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fatal("gate: bad -gate-pattern: %v", err)
	}
	failures, checked := check(load(basePath), load(curPath), re, maxRegress, gates)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d gated benchmarks within +%.0f%% of baseline\n", checked, 100*maxRegress)
}

// check holds every benchmark re selects from base to within maxRegress of
// its ns/op there, and cur to every pair gate. It returns the failure
// messages and how many baseline benchmarks it compared.
func check(base, cur Summary, re *regexp.Regexp, maxRegress float64, gates []pairGate) (failures []string, checked int) {
	for name, b := range base.Benchmarks {
		if !re.MatchString(name) {
			continue
		}
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from current run (renamed or deleted? refresh the baseline)", name))
			continue
		}
		checked++
		if c.NsPerOp > b.NsPerOp*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%% > +%.0f%% allowed)",
				name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*maxRegress))
		}
	}
	if checked == 0 {
		failures = append(failures, fmt.Sprintf("no baseline benchmarks match %q — the gate is checking nothing; refresh the baseline", re))
	}
	for _, g := range gates {
		failures = append(failures, pairSpeedup(cur.Benchmarks, re, g)...)
	}
	return failures, checked
}

// pairSpeedup holds every gated "/<fast>" benchmark in cur to g's floor
// against its "/<slow>" sibling. It returns the failure messages, including
// one when no pair exists at all.
func pairSpeedup(cur map[string]Result, re *regexp.Regexp, g pairGate) []string {
	var failures []string
	pairs := 0
	for name, c := range cur {
		if !re.MatchString(name) || !strings.HasSuffix(name, "/"+g.fast) {
			continue
		}
		s, ok := cur[strings.TrimSuffix(name, "/"+g.fast)+"/"+g.slow]
		if !ok {
			continue
		}
		pairs++
		speedup := s.NsPerOp / c.NsPerOp
		if speedup >= g.floor {
			continue
		}
		// The one gate's floor is below 1, a ceiling on how much slower
		// fast may be, so report it as overhead.
		failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs %.0f %s (+%.1f%% > +%.0f%% allowed)",
			name, c.NsPerOp, s.NsPerOp, g.slow, 100*(1/speedup-1), 100*(1/g.floor-1)))
	}
	if pairs == 0 {
		failures = append(failures, fmt.Sprintf("no %s/%s benchmark pairs found for the -%s check", g.slow, g.fast, g.flag))
	}
	return failures
}
