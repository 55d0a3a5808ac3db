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
// A second gate, -max-overhead, pairs every benchmark ending in "/live" with
// its "/nop" sibling within the CURRENT run (no baseline needed) and fails
// when live instrumentation costs more than the allowed fraction — how CI
// holds the observability layer to ≤5% on the instrumented hot paths
// (BenchmarkObsOverhead).
//
// A third gate, -min-parallel-speedup, pairs every benchmark ending in
// "/parallel" with its "/serial" sibling within the CURRENT run and fails
// when the parallel variant is not at least that many times faster — how CI
// holds the conflict-aware execution engine to its >=2x floor on the
// conflict-free workload (BenchmarkParallelExec) on multicore runners.
//
// Two more same-run pair gates hold the frame-authentication fast paths:
// -min-cached-speedup pairs "/cached" with "/uncached" (BenchmarkAuth — the
// precomputed-MAC-key + pooled-HMAC path against the derive-per-call
// implementation it replaced, >=5x), and -min-pooled-speedup pairs
// "/pooled" with "/inline" (BenchmarkVerifyPool — the parallel batched
// signature-verification drain against sequential per-record verification,
// >=2x on multicore runners).
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
		minParSpd  = flag.Float64("min-parallel-speedup", 0, "gate: fail when a /parallel variant is not at least this many times faster than its /serial sibling, both from the current run (0 disables)")
		minCached  = flag.Float64("min-cached-speedup", 0, "gate: fail when a /cached variant is not at least this many times faster than its /uncached sibling, both from the current run (0 disables)")
		minPooled  = flag.Float64("min-pooled-speedup", 0, "gate: fail when a /pooled variant is not at least this many times faster than its /inline sibling, both from the current run (0 disables)")
		pattern    = flag.String("gate-pattern", `^Benchmark(AsyncJournal|Codec|Broadcast|Obs|FlightRecord|ParallelExec|Auth|VerifyPool)`, "gate: regexp selecting the benchmarks that block the build")
	)
	flag.Parse()
	switch {
	case *emit == *gate:
		fatal("exactly one of -emit or -gate is required")
	case *emit:
		runEmit(*out, flag.Args())
	default:
		runGate(*baseline, *current, *pattern, *maxRegress, *maxOverhd, *minParSpd, *minCached, *minPooled)
	}
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

func runGate(basePath, curPath, pattern string, maxRegress, maxOverhead, minParallelSpeedup, minCachedSpeedup, minPooledSpeedup float64) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fatal("gate: bad -gate-pattern: %v", err)
	}
	base, cur := load(basePath), load(curPath)
	var failures []string

	checked := 0
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
		failures = append(failures, fmt.Sprintf("no baseline benchmarks match %q — the gate is checking nothing; refresh the baseline", pattern))
	}

	if maxOverhead > 0 {
		// Instrumentation overhead pairs every "/live" benchmark with its
		// "/nop" sibling — both from the CURRENT run, so the check is
		// machine-independent and needs no baseline entry to exist first.
		pairs := 0
		for name, c := range cur.Benchmarks {
			if !re.MatchString(name) || !strings.HasSuffix(name, "/live") {
				continue
			}
			nopName := strings.TrimSuffix(name, "/live") + "/nop"
			n, ok := cur.Benchmarks[nopName]
			if !ok {
				continue
			}
			pairs++
			if c.NsPerOp > n.NsPerOp*(1+maxOverhead) {
				failures = append(failures, fmt.Sprintf("%s: live instrumentation costs %.0f ns/op vs %.0f no-op (+%.1f%% > +%.0f%% allowed)",
					name, c.NsPerOp, n.NsPerOp, 100*(c.NsPerOp/n.NsPerOp-1), 100*maxOverhead))
			}
		}
		if pairs == 0 {
			failures = append(failures, "no nop/live benchmark pairs found for the -max-overhead check")
		}
	}

	if minParallelSpeedup > 0 {
		// Parallel-execution floor: every "/parallel" benchmark against its
		// "/serial" sibling, both from the CURRENT run, so the check holds
		// on whatever core count the runner has (the benchmark itself only
		// pairs the names on its conflict-free workload).
		pairs := 0
		for name, c := range cur.Benchmarks {
			if !re.MatchString(name) || !strings.HasSuffix(name, "/parallel") {
				continue
			}
			serialName := strings.TrimSuffix(name, "/parallel") + "/serial"
			s, ok := cur.Benchmarks[serialName]
			if !ok {
				continue
			}
			pairs++
			if speedup := s.NsPerOp / c.NsPerOp; speedup < minParallelSpeedup {
				failures = append(failures, fmt.Sprintf("%s: parallel is only %.2fx serial (%.0f vs %.0f ns/op), want >= %.1fx",
					name, speedup, c.NsPerOp, s.NsPerOp, minParallelSpeedup))
			}
		}
		if pairs == 0 {
			failures = append(failures, "no serial/parallel benchmark pairs found for the -min-parallel-speedup check")
		}
	}

	if minCachedSpeedup > 0 {
		// Cached-MAC floor: the precomputed-pair-key + pooled-HMAC Tag+Verify
		// path against the derive-keys-per-call implementation it replaced
		// (BenchmarkAuth .../cached vs .../uncached), paired within the
		// current run so the floor is machine-independent.
		failures = append(failures, pairSpeedup(cur.Benchmarks, re, "cached", "uncached", minCachedSpeedup)...)
	}

	if minPooledSpeedup > 0 {
		// Verify-pool floor: the parallel batched signature-verification
		// drain against sequential per-record verification
		// (BenchmarkVerifyPool .../pooled vs .../inline) — like the parallel
		// execution floor, this needs the runner's multiple cores.
		failures = append(failures, pairSpeedup(cur.Benchmarks, re, "pooled", "inline", minPooledSpeedup)...)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d gated benchmarks within +%.0f%% of baseline\n", checked, 100*maxRegress)
}

// pairSpeedup enforces a same-run speedup floor: every gated benchmark
// ending in "/<fast>" must be at least floor times faster than its
// "/<slow>" sibling from the same summary. Returns the failure messages,
// including one when no pairs exist at all (a silent gate checks nothing).
func pairSpeedup(cur map[string]Result, re *regexp.Regexp, fast, slow string, floor float64) []string {
	var failures []string
	pairs := 0
	for name, c := range cur {
		if !re.MatchString(name) || !strings.HasSuffix(name, "/"+fast) {
			continue
		}
		s, ok := cur[strings.TrimSuffix(name, "/"+fast)+"/"+slow]
		if !ok {
			continue
		}
		pairs++
		if speedup := s.NsPerOp / c.NsPerOp; speedup < floor {
			failures = append(failures, fmt.Sprintf("%s: %s is only %.2fx %s (%.0f vs %.0f ns/op), want >= %.1fx",
				name, fast, speedup, slow, c.NsPerOp, s.NsPerOp, floor))
		}
	}
	if pairs == 0 {
		failures = append(failures, fmt.Sprintf("no %s/%s benchmark pairs found for the speedup floor check", slow, fast))
	}
	return failures
}
