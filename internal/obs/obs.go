// Package obs is the node's observability layer: a dependency-free metrics
// registry (atomic counters, gauges, and log-bucketed latency histograms
// with p50/p95/p99/max snapshots), sampled per-transaction lifecycle stamps
// recorded as flight events, and an admin HTTP handler exposing everything
// as Prometheus text exposition format plus health probes, both flight
// rings and pprof.
//
// The hot path allocates nothing: instruments are plain atomics, every
// method is nil-receiver safe (a nil *Counter, *Gauge, *Histogram,
// *flight.Recorder or *NodeMetrics is a no-op sink), and rendering cost is
// paid only at scrape time. Subsystems that keep their own counters (transport, wal,
// statesync) register closures via CounterFunc/GaugeFunc and are polled at
// scrape.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil Counter is a
// valid no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. A nil Gauge is a valid no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// writeFn renders one series. name is the family name, labels the series'
// constant label pairs (`k="v",k2="v2"`, possibly empty).
type writeFn func(w io.Writer, name, labels string)

type series struct {
	labels string
	write  writeFn
}

// family groups every series sharing a metric name; HELP and TYPE are
// emitted once per family, as the exposition format requires.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []series
}

// Registry holds instruments in registration order and renders them as
// Prometheus text exposition format. All methods are safe for concurrent
// use; instrument updates never take the registry lock.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

// add registers one series under name. Registering the same name with a
// different kind, or the same name+labels twice, is a programming error and
// panics.
func (r *Registry) add(name, labels, help string, kind metricKind, w writeFn) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.index[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic("obs: duplicate series " + name + "{" + labels + "}")
		}
	}
	f.series = append(f.series, series{labels: labels, write: w})
}

// Counter registers and returns a counter. labels is either empty or a
// rendered constant label list like `stage="consensus"`.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.add(name, labels, help, kindCounter, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
	})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	g := &Gauge{}
	r.add(name, labels, help, kindGauge, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), g.Value())
	})
	return g
}

// CounterFunc registers a counter whose value is polled at scrape time —
// the bridge for subsystems that already keep their own atomic counters.
func (r *Registry) CounterFunc(name, labels, help string, f func() float64) {
	r.add(name, labels, help, kindCounter, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(f()))
	})
}

// GaugeFunc registers a gauge polled at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, f func() float64) {
	r.add(name, labels, help, kindGauge, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(f()))
	})
}

// Histogram registers and returns a log-bucketed latency histogram.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	h := &Histogram{}
	r.add(name, labels, help, kindHistogram, h.writeProm)
	return h
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			s.write(bw, f.name, s.labels)
		}
	}
	return bw.Flush()
}

// braced wraps a rendered label list for a sample line; empty labels render
// as nothing.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat renders a sample value: integral values without an exponent,
// everything else in Go's shortest representation (both accepted by the
// exposition format).
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
