package main

import (
	"sync"
	"time"
)

// generator drives the clients of a cluster: one scheduler goroutine for an
// open loop, one feeder goroutine per client for a closed loop. It never
// submits from a completion hook (see loadClient.tokens).
type generator struct {
	c      *cluster
	end    int64 // no request is due at or after this instant
	stopCh chan struct{}
	wg     sync.WaitGroup

	// lateMs is how long after its due (open loop) or send (closed loop) time
	// each request was handed to its client: the generator's own share of the
	// latency it charges. Each generator goroutine adds its list when it ends.
	mu     sync.Mutex
	lateMs []float64
}

func newGenerator(c *cluster, end int64) *generator {
	return &generator{c: c, end: end, stopCh: make(chan struct{})}
}

func (g *generator) start() {
	if g.c.sp.rate > 0 {
		g.wg.Add(1)
		go g.openLoop()
		return
	}
	for _, lc := range g.c.clients {
		g.wg.Add(1)
		go g.feed(lc)
	}
}

func (g *generator) addLate(ms []float64) {
	g.mu.Lock()
	g.lateMs = append(g.lateMs, ms...)
	g.mu.Unlock()
}

// stop ends submission and waits for the generator goroutines.
func (g *generator) stop() {
	close(g.stopCh)
	g.wg.Wait()
}

// openLoop sends on a fixed schedule whatever the system does: request k is
// due at t0 + k/rate, clients take turns, and a late tick sends everything
// that came due meanwhile, each request charged from its own due time.
func (g *generator) openLoop() {
	defer g.wg.Done()
	rate := int64(g.c.sp.rate)
	t0 := now()
	tick := time.NewTicker(schedTick)
	defer tick.Stop()
	var late []float64
	defer func() { g.addLate(late) }()
	for issued := int64(0); ; {
		select {
		case <-g.stopCh:
			return
		case <-tick.C:
		}
		t := min(now(), g.end)
		for due := (t - t0) * rate / 1e9; issued < due; issued++ {
			lc := g.c.clients[issued%int64(len(g.c.clients))]
			late = append(late, lc.submit(t0+issued*1e9/rate))
		}
		if t == g.end {
			return
		}
	}
}

// feed keeps window requests of one client outstanding: window up front, then
// one per completion token.
func (g *generator) feed(lc *loadClient) {
	defer g.wg.Done()
	var late []float64
	defer func() { g.addLate(late) }()
	for i := 0; i < g.c.sp.window; i++ {
		late = append(late, lc.submit(now()))
	}
	for {
		select {
		case <-g.stopCh:
			return
		case <-lc.tokens:
			if now() >= g.end {
				return
			}
			late = append(late, lc.submit(now()))
		}
	}
}

// drain waits until every submitted request completed, at most d.
func (g *generator) drain(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		outstanding := false
		for _, lc := range g.c.clients {
			lc.mu.Lock()
			n := uint64(len(lc.recs))
			lc.mu.Unlock()
			if lc.completed.Load() < n {
				outstanding = true
			}
		}
		if !outstanding {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lateP99 is the 99th percentile of the generator's lateness.
func (g *generator) lateP99() time.Duration {
	if len(g.lateMs) == 0 {
		return 0
	}
	return time.Duration(percentile(g.lateMs, 0.99) * float64(time.Millisecond))
}
