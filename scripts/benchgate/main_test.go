package main

import (
	"regexp"
	"strings"
	"testing"
)

var gated = regexp.MustCompile(`^Benchmark`)

// summary builds a run from benchmark name → ns/op.
func summary(nsPerOp map[string]float64) Summary {
	s := Summary{Format: 1, Benchmarks: map[string]Result{}}
	for name, ns := range nsPerOp {
		s.Benchmarks[name] = Result{Iterations: 1, NsPerOp: ns}
	}
	return s
}

// gateRun checks cur against itself as baseline, so only the pair gates
// can fail.
func gateRun(cur Summary, gates []pairGate) []string {
	failures, _ := check(cur, cur, gated, 0.25, gates)
	return failures
}

func TestOverheadGate(t *testing.T) {
	for _, tc := range []struct {
		live float64
		want string // "" = pass
	}{
		{1115, "+11.5% > +5% allowed"},
		{1040, ""},
	} {
		cur := summary(map[string]float64{
			"BenchmarkObsOverhead/vote-broadcast/nop":  1000,
			"BenchmarkObsOverhead/vote-broadcast/live": tc.live,
		})
		failures := gateRun(cur, pairGates(0.05, 0, 0, 0))
		switch {
		case tc.want == "" && len(failures) != 0:
			t.Errorf("live %.0f vs nop 1000: want pass, got %q", tc.live, failures)
		case tc.want != "" && (len(failures) != 1 || !strings.Contains(failures[0], tc.want)):
			t.Errorf("live %.0f vs nop 1000: want one failure containing %q, got %q", tc.live, tc.want, failures)
		}
	}
}

func TestSpeedupGate(t *testing.T) {
	cur := summary(map[string]float64{
		"BenchmarkParallelExec/ycsb/conflict=0/serial":   3000,
		"BenchmarkParallelExec/ycsb/conflict=0/parallel": 2000,
	})
	failures := gateRun(cur, pairGates(0, 2, 0, 0))
	if len(failures) != 1 || !strings.Contains(failures[0], "parallel is only 1.50x serial") {
		t.Errorf("1.5x against a 2x floor: got %q", failures)
	}
	if failures := gateRun(cur, pairGates(0, 1.4, 0, 0)); len(failures) != 0 {
		t.Errorf("1.5x against a 1.4x floor: got %q", failures)
	}
}

func TestPairGateWithoutSiblingFails(t *testing.T) {
	cur := summary(map[string]float64{"BenchmarkAuth/mac/53B/cached": 400})
	failures := gateRun(cur, pairGates(0, 0, 5, 0))
	if len(failures) != 1 || !strings.Contains(failures[0], "no uncached/cached benchmark pairs") {
		t.Errorf("fast row without its slow sibling: got %q", failures)
	}
}

func TestZeroFlagDisablesGate(t *testing.T) {
	if gates := pairGates(0, 0, 0, 0); len(gates) != 0 {
		t.Fatalf("all flags 0: got gates %+v", gates)
	}
	if gates := pairGates(0.05, 2, 5, 2); len(gates) != 4 {
		t.Fatalf("all flags set: got %d gates, want 4", len(gates))
	}
	cur := summary(map[string]float64{
		"BenchmarkFlightRecord/vote-broadcast/nop":  1000,
		"BenchmarkFlightRecord/vote-broadcast/live": 2000,
	})
	if failures := gateRun(cur, pairGates(0, 0, 0, 0)); len(failures) != 0 {
		t.Errorf("-max-overhead 0 with live at 2x nop: got %q", failures)
	}
	if failures := gateRun(cur, pairGates(0.05, 0, 0, 0)); len(failures) != 1 {
		t.Errorf("-max-overhead 0.05 with live at 2x nop: got %q", failures)
	}
}
