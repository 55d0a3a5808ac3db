package runtime

import (
	"sync"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

type event struct {
	from    sm.Source
	msg     types.Message
	timer   sm.TimerID
	isTimer bool
	fn      func()
}

// host is the event-loop plumbing a replica and a client process share:
// the bounded event queue, the armed timers, the clock and the stop
// signal. Its SetTimer, CancelTimer and Now serve both environments.
type host struct {
	events chan event
	timers struct {
		sync.Mutex
		m map[sm.TimerID]*time.Timer
	}
	start time.Time

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

func newHost(queueDepth int) *host {
	h := &host{
		events:  make(chan event, queueDepth),
		stopped: make(chan struct{}),
		start:   time.Now(),
	}
	h.timers.m = make(map[sm.TimerID]*time.Timer)
	return h
}

// enqueue hands e to the loop, waiting for queue space. It reports false
// once the host stopped.
func (h *host) enqueue(e event) bool {
	select {
	case h.events <- e:
		return true
	case <-h.stopped:
		return false
	}
}

// spawn runs fn on a goroutine that halt waits for.
func (h *host) spawn(fn func()) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		fn()
	}()
}

// halt signals stop, disarms every timer and waits for the spawned
// goroutines to return.
func (h *host) halt() {
	h.stopOnce.Do(func() {
		close(h.stopped)
		h.timers.Lock()
		for _, t := range h.timers.m {
			t.Stop()
		}
		h.timers.Unlock()
	})
	h.wg.Wait()
}

// SetTimer arms id. A timer that fires removes its own entry, so the map
// holds only armed timers however many distinct ids a machine uses.
func (h *host) SetTimer(id sm.TimerID, d time.Duration) {
	h.timers.Lock()
	defer h.timers.Unlock()
	if t, ok := h.timers.m[id]; ok {
		t.Stop()
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		h.timers.Lock()
		if h.timers.m[id] == t { // not re-armed since
			delete(h.timers.m, id)
		}
		h.timers.Unlock()
		h.enqueue(event{timer: id, isTimer: true})
	})
	h.timers.m[id] = t
}

func (h *host) CancelTimer(id sm.TimerID) {
	h.timers.Lock()
	defer h.timers.Unlock()
	if t, ok := h.timers.m[id]; ok {
		t.Stop()
		delete(h.timers.m, id)
	}
}

func (h *host) Now() time.Duration { return time.Since(h.start) }

// watchdog detects a wedged event loop: it enqueues a probe event and
// measures how long the loop takes to service it. A probe outstanding past
// the threshold records one loop_stalled flight event (detail = observed
// delay in nanoseconds) and one rcc_loop_stalls_total increment; the episode
// is not re-reported until the probe finally drains, so a 10-second wedge is
// one event, not twenty.
func (r *Replica) watchdog(threshold time.Duration) {
	interval := threshold / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	ack := make(chan struct{}, 1)
	probe := event{fn: func() {
		select {
		case ack <- struct{}{}:
		default:
		}
	}}
	var sentAt time.Time // zero: no probe outstanding
	enqueued := false    // probe handed to the queue (false while it is full)
	reported := false
	for {
		select {
		case <-r.host.stopped:
			return
		case <-tick.C:
		}
		select {
		case <-ack:
			sentAt, enqueued, reported = time.Time{}, false, false
		default:
		}
		if sentAt.IsZero() {
			sentAt = time.Now()
		}
		if !enqueued {
			// A full queue is itself the backlog being measured: keep the
			// clock running from the first attempt and retry the enqueue.
			select {
			case r.host.events <- probe:
				enqueued = true
			default:
			}
		}
		if el := time.Since(sentAt); el >= threshold && !reported {
			reported = true
			r.stallCount.Add(1)
			r.emit(flight.SubRuntime, flight.KLoopStall, 0, uint64(el))
		}
	}
}

// mirrorFlight periodically persists the ring to <DataDir>/flight.bin so an
// abrupt death (kill -9, OOM) still leaves a recent event prefix on disk.
// Quiet periods skip the write; a clean stop takes one final mirror.
func (r *Replica) mirrorFlight(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	fr := r.flight()
	var last uint64
	for {
		select {
		case <-r.host.stopped:
			r.dumpFlight()
			return
		case <-tick.C:
			if h := fr.Head(); h != last {
				last = h
				r.dumpFlight()
			}
		}
	}
}

func (r *Replica) loop() {
	env := &replicaEnv{host: r.host, r: r}
	r.cfg.Machine.Start(env)
	env.drainSelf()
	for {
		select {
		case <-r.host.stopped:
			return
		case e := <-r.host.events:
			switch {
			case e.fn != nil:
				e.fn()
			case e.isTimer:
				r.cfg.Machine.OnTimer(e.timer)
			default:
				r.dispatch(e.from, e.msg)
			}
		}
		env.drainSelf()
	}
}

// dispatch hands one message to the machine. State-transfer messages are
// the runtime's, not the machine's: probes answer with an offer built here
// (the machine frontier and ledger head read in the same instant), serving
// and responses hand off to the manager's goroutines.
func (r *Replica) dispatch(from sm.Source, m types.Message) {
	if r.sync != nil && r.sync.HandleMessage(from.Replica, from.IsClient, m) {
		return
	}
	r.cfg.Machine.OnMessage(from, m)
}

// Inspect runs f on the replica's event loop and waits for it to return —
// the safe way to read machine state (machines are single-threaded by
// contract). Returns false if the replica stopped before f could run.
func (r *Replica) Inspect(f func()) bool {
	done := make(chan struct{})
	if !r.host.enqueue(event{fn: func() { f(); close(done) }}) {
		return false
	}
	select {
	case <-done:
		return true
	case <-r.host.stopped:
		return false
	}
}
