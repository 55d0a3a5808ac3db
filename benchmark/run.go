package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// setups is how many times a run boots the cluster; setup_s is the median.
const setups = 5

// runSlack is what a run may take on top of its warm-up and window (set-ups,
// drain, check, teardown: about 5 s when healthy) before the watchdog ends it.
const runSlack = 60 * time.Second

// plan is how long a run warms up and measures, and how often it sets up.
type plan struct {
	seconds int
	warmup  time.Duration
	setups  int
}

// schedTick is the open-loop scheduler's period; requests that came due
// since the last tick are sent together, each charged from its own due time.
const schedTick = 500 * time.Microsecond

// maxGenLate is the generator lateness (p99) above which an open-loop run is
// reported invalid: the load it offered was not the load it was asked for.
// On two cores a GC mark worker can hold one P for its whole 10 ms slice, so
// the scheduler goroutine's wake-ups, like the program's own event loops, see
// multi-millisecond gaps; 5-8 ms is what a healthy run measures here.
const maxGenLate = 10 * time.Millisecond

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Notes     []string          `json:"notes,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Budget    []budgetRow       `json:"budget,omitempty"`
}

// window is the measured interval on the process clock.
type window struct{ start, end int64 }

func (w window) holds(t int64) bool { return t >= w.start && t < w.end }

// rusage returns the process's user+sys CPU seconds and its peak resident set
// in MB so far.
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload boots sp, drives it for pl.seconds after the warm-up, checks the
// outputs and returns the metrics. Data lives under outDir and is removed on
// return.
func runWorkload(sp spec, seed int64, pl plan, traced bool, outDir string) (*result, error) {
	res := &result{Workload: sp.name, Seed: seed, Seconds: pl.seconds, Traced: traced, Valid: true}
	// A wedged cluster must fail the run, not hang it: everything below waits
	// on goroutines of the program at some point.
	limit := pl.warmup + time.Duration(pl.seconds)*time.Second + runSlack
	watchdog := time.AfterFunc(limit, func() {
		fatal(fmt.Errorf("%s: run not finished after %v, giving up", sp.name, limit))
	})
	defer watchdog.Stop()
	base, err := os.MkdirTemp(outDir, "data-")
	if err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(base) })
	defer os.RemoveAll(base)

	// Set-up: boot several times, keep the last cluster for the run.
	var tr *tracer
	if traced {
		tr = newTracer(seed)
	}
	var c *cluster
	var setupS []float64
	for i := 0; i < pl.setups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var use *tracer
		if i == pl.setups-1 {
			use = tr
		}
		c, err = boot(sp, seed, filepath.Join(base, fmt.Sprintf("boot-%d", i)), use)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer c.close()

	// Load: warm-up, then the window.
	loadStart := now()
	win := window{start: loadStart + int64(pl.warmup)}
	win.end = win.start + int64(time.Duration(pl.seconds)*time.Second)
	faultAt := win.start + (win.end-win.start)/3

	gen := newGenerator(c, win.end)
	gen.start()

	sleepUntil(win.start)
	cpu0, _ := rusage()
	var before *counters
	if tr != nil {
		before = readCounters(c)
		tr.on.Store(true)
		tr.startProbe(c.nodes[0])
	}

	var killed sync.WaitGroup
	if sp.kill >= 0 {
		sleepUntil(faultAt)
		killed.Add(1)
		go func() {
			defer killed.Done()
			c.kill(sp.kill)
		}()
	}

	sleepUntil(win.end)
	cpu1, _ := rusage()
	var after *counters
	if tr != nil {
		tr.on.Store(false)
		tr.stopProbe()
		after = readCounters(c)
	}
	gen.stop()
	gen.drain(failAfter)
	_, rss := rusage()
	killed.Wait()

	// Outcome of every request that was due inside the window.
	recs := make([][]rec, len(c.clients))
	var completed uint64 // over the cluster's whole life: set-up, warm-up, window, drain
	var lat []float64    // of the requests that did not fail; sorted below
	var doneAt []int64
	doneByEnd := 0 // of the requests due in the window, complete when it closed
	for i, lc := range c.clients {
		rs := lc.snapshot()
		recs[i] = rs
		completed += lc.completed.Load()
		for _, r := range rs {
			if r.done != 0 && win.holds(r.done) {
				doneAt = append(doneAt, r.done)
			}
			if !win.holds(r.due) {
				continue
			}
			res.Attempted++
			if r.done != 0 && r.done < win.end {
				doneByEnd++
			}
			if r.done == 0 || r.done-r.due > int64(failAfter) {
				res.Failed++
				continue
			}
			lat = append(lat, float64(r.done-r.due)/1e6)
		}
	}
	if len(lat) == 0 || len(doneAt) == 0 {
		return nil, fmt.Errorf("%s: no request completed inside the window", sp.name)
	}
	slices.Sort(lat)

	txnPerS := throughput(doneAt, pl.seconds)
	rate := float64(sp.rate) // what recovery is measured against
	if sp.rate == 0 {
		rate = txnPerS
	}
	res.EndToEnd = map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"txn_per_s":      {txnPerS, "txn/s"},
		"lat_p50_ms":     {quantile(lat, 0.50), "ms"},
		"lat_p90_ms":     {quantile(lat, 0.90), "ms"},
		"recover_s":      {recoverSeconds(doneAt, faultAt, rate), "s"},
		"cpu_s_per_ktxn": {(cpu1 - cpu0) / (float64(len(doneAt)) / 1000), "s"},
		"rss_kb_per_txn": {rss * 1024 / float64(completed), "KB"},
	}

	// An open loop is valid only if it offered what it was asked to and the
	// system kept up. A killed primary breaks both by design: the backlog is
	// the measurement, and draining it saturates both cores.
	if sp.rate > 0 && sp.kill < 0 {
		late := gen.lateP99()
		if late > maxGenLate {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("generator ran %.2f ms late at p99 (limit %v)", late.Seconds()*1e3, maxGenLate))
		}
		if float64(doneByEnd) < 0.99*float64(res.Attempted) {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("growing backlog: %d of %d due requests complete at the end of the window", doneByEnd, res.Attempted))
		}
	}

	if tr != nil {
		res.PerLayer, res.Budget = layerMetrics(c, before, after, win, res, lat, gen, outDir)
	}

	if errs := verify(c, recs); len(errs) > 0 {
		res.Notes = append(res.Notes, errs...)
	} else {
		res.Correct = true
	}
	return res, nil
}

func sleepUntil(t int64) {
	if d := time.Duration(t - now()); d > 0 {
		time.Sleep(d)
	}
}
