// Command benchmark measures a live RCC cluster end to end and layer by
// layer: four runtime.Replicas over loopback TCP with a durable journal,
// driven from this process by named workloads. See README.md.
//
//	go run . -workload lan_open -seed 7            one untraced run
//	go run . -workload lan_open -seed 7 -trace 1   one traced run: per-layer metrics and spans
//	go run . -runs 10 -out a.json                  every workload, ten seeds each
//	go run . -compare a.json b.json                verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// e2eMetric describes one end-to-end metric; the table below is the same
// list, with the same bounds, as BENCHMARK.json (a test compares them).
type e2eMetric struct {
	name, unit    string
	lowerIsBetter bool
	bound         float64 // share of the baseline median it may worsen by
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", true, 0.25},
	{"txn_per_s", "txn/s", false, 0.25},
	{"lat_p50_ms", "ms", true, 0.25},
	{"lat_p90_ms", "ms", true, 0.25},
	{"recover_s", "s", true, 0.20},
	{"cpu_s_per_ktxn", "s", true, 0.25},
	{"rss_kb_per_txn", "KB", true, 0.25},
}

// exitHooks run on every exit path, including signals: a saturated run
// journals several hundred MB that must not outlive the process.
var exitHooks struct {
	sync.Mutex
	fns []func()
}

func onExit(f func()) {
	exitHooks.Lock()
	exitHooks.fns = append(exitHooks.fns, f)
	exitHooks.Unlock()
}

func exit(code int) {
	exitHooks.Lock()
	for _, f := range exitHooks.fns {
		f()
	}
	exitHooks.Unlock()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	exit(1)
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the transaction generators and the trace sampler")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "write the result set as JSON to this file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			exit(1)
		}
		return
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1"))
	}
	// Span files and temporary data go to benchmark/out, from the repository
	// root and from inside benchmark/ alike.
	outDir := "out"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		outDir = "benchmark/out"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exit(130)
	}()

	todo := specs
	if *workload != "" {
		sp, err := specByName(*workload)
		if err != nil {
			fatal(err)
		}
		todo = []spec{sp}
	}
	// The resident set's high-water mark belongs to the process, and a heap
	// one run grew would be charged to the next: only a single run is made
	// here, several are each made by a child of their own.
	single := *workload != "" && *runs == 1
	set := resultSet{Machine: machineFacts(outDir)}
	correct := true
	for _, sp := range todo {
		for i := 0; i < *runs; i++ {
			var res *result
			var err error
			if single {
				res, err = runWorkload(sp, *seed, plan{*seconds, warmup, setups}, *trace == 1, outDir)
				if err == nil && !res.Traced {
					err = noteUntraced(outDir, sp.name, res.EndToEnd["cpu_s_per_ktxn"].Value)
				}
				if err == nil {
					printResult(res)
				}
			} else {
				res, err = runInChild(sp, *seed+int64(i), *seconds, *trace, outDir)
			}
			if err != nil {
				fatal(err)
			}
			set.Results = append(set.Results, res)
			correct = correct && res.Correct
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if single {
		printContractLine(set.Results[0])
	}
	if !correct {
		exit(1)
	}
	exit(0)
}

// runInChild makes one run in a process of its own, which prints the result
// as it would alone, and returns what that process wrote with -out.
func runInChild(sp spec, seed int64, seconds, trace int, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(exe, "-workload", sp.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	onExit(func() { // a signal to this process ends the child's run too
		if cmd.Process.Signal(syscall.SIGTERM) == nil {
			<-done // its clean-up
		}
	})
	runErr := cmd.Wait() // non-zero also when the correctness check failed
	close(done)
	set, err := loadSet(tmp)
	if err != nil || len(set.Results) != 1 {
		return nil, fmt.Errorf("%s seed %d: child left no result (%v, %v)", sp.name, seed, runErr, err)
	}
	return set.Results[0], nil
}

// printResult prints every metric of one run by name, with its unit.
func printResult(r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %d s  %s  correct=%v valid=%v  attempted %d failed %d  latency samples %d\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Correct, r.Valid, r.Attempted, r.Failed, r.Attempted-r.Failed)
	for _, note := range r.Notes {
		fmt.Println("   note:", note)
	}
	printMetrics := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("   %-30s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics(r.EndToEnd)
	if r.Traced {
		printMetrics(r.PerLayer)
		fmt.Printf("   %-22s %-12s %8s %10s %10s\n", "span", "parent", "n", "p50 ms", "p90 ms")
		for _, b := range r.Budget {
			fmt.Printf("   %-22s %-12s %8d %10.4f %10.4f\n", b.Span, b.Parent, b.N, b.P50ms, b.P90ms)
		}
	}
}

// printContractLine prints the one-line JSON object the benchmark driver
// reads: end-to-end metrics of an untraced run, per-layer metrics of a traced
// one.
func printContractLine(r *result) {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
