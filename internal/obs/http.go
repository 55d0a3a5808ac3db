package obs

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs/flight"
)

// Health wires liveness and readiness probes into the admin handler. A nil
// probe always passes.
type Health struct {
	// Healthy failing (non-nil error) flips /healthz to 503 — wired to the
	// replica's sticky DurabilityErr: a poisoned journal means the process
	// must be replaced, not retried.
	Healthy func() error
	// Ready failing flips /readyz to 503 — the replica is alive but not
	// serving at the cluster head yet (state transfer in progress).
	Ready func() error
}

// NewHandler returns the admin HTTP handler over met's instruments:
//
//	/metrics       Prometheus text exposition of met's registry
//	/healthz       liveness probe (503 once durability is poisoned)
//	/readyz        readiness probe (503 until caught up and journaling)
//	/debug/trace   the Lifecycle ring, grouped by transaction
//	/debug/events  the Flight ring, one event per line
//	/debug/pprof   Go runtime profiles
//
// Both ring endpoints are ringHandler over a flight ring, so they share
// one cursor contract. met may be nil, and either ring may be nil
// (recording disabled).
func NewHandler(met *NodeMetrics, h Health) http.Handler {
	if met == nil {
		met = &NodeMetrics{}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", probe(h.Healthy))
	mux.HandleFunc("/readyz", probe(h.Ready))
	mux.HandleFunc("/debug/trace", ringHandler("trace", met.Lifecycle, func(w io.Writer, snap flight.Snapshot) {
		writeTrace(w, snap, met.sample)
	}))
	mux.HandleFunc("/debug/events", ringHandler("flight", met.Flight, flight.WriteText))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ringHandler serves one flight ring. The cursor is the count of events
// ever recorded: each text dump ends with, and each binary dump
// (?format=bin) carries in its header, a `next` cursor, and passing it
// back as ?since= returns only events recorded after the previous poll. A
// malformed cursor is a 400. text renders the text form.
func ringHandler(name string, fr *flight.Recorder, text func(io.Writer, flight.Snapshot)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if fr == nil {
			fmt.Fprintln(w, name+": recording disabled")
			return
		}
		since, err := strconv.ParseUint(cmp.Or(r.URL.Query().Get("since"), "0"), 10, 64)
		if err != nil {
			http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		snap := fr.Dump(since)
		if r.URL.Query().Get("format") == "bin" {
			w.Header().Set("Content-Type", "application/octet-stream")
			flight.EncodeBinary(w, snap)
			return
		}
		text(w, snap)
	}
}

// writeTrace renders a Lifecycle snapshot grouped by transaction: one line
// per (replica, client, seq), each stamp shown as a delta from the group's
// first stamp, then the "next=<cursor>" line.
func writeTrace(w io.Writer, snap flight.Snapshot, sample uint64) {
	type key struct {
		replica     uint16
		client, seq uint64
	}
	var order []key
	grouped := make(map[key][]flight.Event)
	for _, e := range snap.Events {
		k := key{e.Replica, e.Detail, e.Seq}
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], e)
	}
	if len(order) == 0 {
		fmt.Fprintln(w, "trace: no sampled events recorded")
	} else {
		fmt.Fprintf(w, "trace: %d events, %d transactions (1 in %d sampled)\n", len(snap.Events), len(order), sample)
	}
	for _, k := range order {
		evs := grouped[k]
		fmt.Fprintf(w, "r%d client=%d seq=%d inst=%d  %s", k.replica, k.client, k.seq, evs[0].Instance,
			snap.WallTime(evs[0]).Format("15:04:05.000000"))
		for _, e := range evs {
			fmt.Fprintf(w, "  %s+%s", e.Kind, time.Duration(e.Mono-evs[0].Mono).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "next=%d\n", snap.Next)
}

func probe(f func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if f != nil {
			if err := f(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}
