// Package bench is the experiment harness: one function per table/figure of
// the RCC paper's evaluation (§V), each returning the same rows/series the
// paper reports. cmd/rccbench prints them and the repository-root benchmarks
// wrap them as testing.B targets. The live program's throughput and latency
// come from the benchmark/ module, not from here.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/crypto"
	"repro/internal/flowsim"
	"repro/internal/model"
)

// Table is one reproduced table or figure series.
type Table struct {
	// ID is the experiment identifier, e.g. "fig8a".
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the series.
	Rows [][]string
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// ReplicaCounts is the paper's x-axis for the scalability plots.
var ReplicaCounts = []int{4, 16, 32, 64, 91}

// BatchSizes is the paper's x-axis for the batching plots (Fig. 8 e,f).
var BatchSizes = []int{10, 50, 100, 200, 400}

func ktps(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

func seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ---------------------------------------------------------------------------
// Fig. 1 — analytical bounds
// ---------------------------------------------------------------------------

// Fig1 computes the analytical maximum-throughput curves of Fig. 1 for the
// given transactions-per-proposal grouping (20 for the left plot, 400 for
// the right).
func Fig1(txnPerProposal int) *Table {
	side := "left"
	if txnPerProposal >= 400 {
		side = "right"
	}
	t := &Table{
		ID:     "fig1" + side,
		Title:  fmt.Sprintf("Maximum replication throughput, %d txn/proposal (ktxn/s)", txnPerProposal),
		Header: []string{"n", "Tmax", "TPBFT", "Tcmax", "TcPBFT"},
	}
	for _, pt := range model.Fig1Series(model.DefaultFig1(txnPerProposal), 100) {
		if pt.N%8 != 0 && pt.N != 4 && pt.N != 100 {
			continue // sample the curve like the plot's readable grid
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.N), ktps(pt.Tmax), ktps(pt.TPBFT), ktps(pt.Tcmax), ktps(pt.TcPBFT),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 7 — ResilientDB characteristics
// ---------------------------------------------------------------------------

// Fig7Left reproduces Fig. 7 (left): the maximum rate of a single replica
// that receives client transactions and replies, versus one that also
// executes them.
func Fig7Left() *Table {
	env := flowsim.DefaultEnv()
	return &Table{
		ID:     "fig7left",
		Title:  "Single-replica client handling (ktxn/s); paper: Reply 551, Full 217",
		Header: []string{"mode", "ktxn/s"},
		Rows: [][]string{
			{"Reply", ktps(flowsim.SingleReplicaReply(env))},
			{"Full", ktps(flowsim.SingleReplicaFull(env, 100))},
		},
	}
}

// Fig7Right reproduces Fig. 7 (right): PBFT with n = 16 replicas under the
// three authentication configurations.
func Fig7Right() *Table {
	t := &Table{
		ID:     "fig7right",
		Title:  "PBFT n=16 by crypto scheme (ktxn/s); paper: None 145, DS −86%, MAC −33%",
		Header: []string{"scheme", "ktxn/s", "latency(s)", "bound"},
	}
	rows := []struct {
		name    string
		replica crypto.Scheme
		client  crypto.Scheme
	}{
		{"None", crypto.SchemeNone, crypto.SchemeNone},
		{"PK", crypto.SchemeDS, crypto.SchemeDS},
		{"MAC", crypto.SchemeMAC, crypto.SchemeDS},
	}
	for _, r := range rows {
		res := flowsim.Evaluate(flowsim.Setup{
			Protocol: flowsim.PBFT, N: 16, BatchSize: 100,
			Crypto: r.replica, ClientSig: r.client, OutOfOrder: true,
		})
		t.Rows = append(t.Rows, []string{r.name, ktps(res.Throughput), seconds(res.Latency), res.Bound})
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 8 — main evaluation
// ---------------------------------------------------------------------------

// protoColumn describes one plotted protocol line.
type protoColumn struct {
	name  string
	proto flowsim.Protocol
	m     func(n int) int
}

func fig8Columns() []protoColumn {
	return []protoColumn{
		{"RCCn", flowsim.PBFT, func(n int) int { return n }},
		{"RCCf+1", flowsim.PBFT, func(n int) int { return (n-1)/3 + 1 }},
		{"RCC3", flowsim.PBFT, func(int) int { return 3 }},
		{"PBFT", flowsim.PBFT, func(int) int { return 1 }},
		{"Zyzzyva", flowsim.Zyzzyva, func(int) int { return 1 }},
		{"SBFT", flowsim.SBFT, func(int) int { return 1 }},
		{"HotStuff", flowsim.HotStuff, func(int) int { return 1 }},
	}
}

func fig8Sweep(id, title string, batch, failures int, ooo bool, latency bool) *Table {
	cols := fig8Columns()
	t := &Table{ID: id, Title: title, Header: []string{"n"}}
	for _, c := range cols {
		t.Header = append(t.Header, c.name)
	}
	for _, n := range ReplicaCounts {
		row := []string{fmt.Sprint(n)}
		for _, c := range cols {
			res := flowsim.Evaluate(flowsim.Setup{
				Protocol: c.proto, N: n, Concurrent: c.m(n), BatchSize: batch,
				Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC,
				OutOfOrder: ooo, Failures: failures,
			})
			if latency {
				row = append(row, seconds(res.Latency))
			} else {
				row = append(row, ktps(res.Throughput))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8a is the no-failure throughput scalability sweep (ktxn/s).
func Fig8a() *Table {
	return fig8Sweep("fig8a", "Scalability, no failures — throughput (ktxn/s)", 100, 0, true, false)
}

// Fig8b is the no-failure latency sweep (seconds).
func Fig8b() *Table {
	return fig8Sweep("fig8b", "Scalability, no failures — latency (s)", 100, 0, true, true)
}

// Fig8c is the single-failure throughput sweep (ktxn/s).
func Fig8c() *Table {
	return fig8Sweep("fig8c", "Scalability, single failure — throughput (ktxn/s)", 100, 1, true, false)
}

// Fig8d is the single-failure latency sweep (seconds).
func Fig8d() *Table {
	return fig8Sweep("fig8d", "Scalability, single failure — latency (s)", 100, 1, true, true)
}

func fig8Batch(id, title string, latency bool) *Table {
	cols := fig8Columns()
	t := &Table{ID: id, Title: title, Header: []string{"batch"}}
	for _, c := range cols {
		t.Header = append(t.Header, c.name)
	}
	const n = 32
	for _, b := range BatchSizes {
		row := []string{fmt.Sprint(b)}
		for _, c := range cols {
			res := flowsim.Evaluate(flowsim.Setup{
				Protocol: c.proto, N: n, Concurrent: c.m(n), BatchSize: b,
				Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC,
				OutOfOrder: true, Failures: 1,
			})
			if latency {
				row = append(row, seconds(res.Latency))
			} else {
				row = append(row, ktps(res.Throughput))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8e is the batch-size throughput sweep at n=32 with one failure.
func Fig8e() *Table {
	return fig8Batch("fig8e", "Batching, single failure, n=32 — throughput (ktxn/s)", false)
}

// Fig8f is the batch-size latency sweep at n=32 with one failure.
func Fig8f() *Table {
	return fig8Batch("fig8f", "Batching, single failure, n=32 — latency (s)", true)
}

// Fig8g is the out-of-order-disabled throughput sweep.
func Fig8g() *Table {
	return fig8Sweep("fig8g", "Out-of-ordering disabled — throughput (ktxn/s)", 100, 0, false, false)
}

// Fig8h is the out-of-order-disabled latency sweep.
func Fig8h() *Table {
	return fig8Sweep("fig8h", "Out-of-ordering disabled — latency (s)", 100, 0, false, true)
}

// ---------------------------------------------------------------------------
// Fig. 9 — RCC as a paradigm
// ---------------------------------------------------------------------------

// Fig9 evaluates RCC-P, RCC-Z, and RCC-S (m = n, no failures) in the flow
// model only: the program runs RCC-P alone.
func Fig9() *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "RCC as a paradigm, m=n, no failures — throughput (ktxn/s) / latency (s)",
		Header: []string{"n", "RCC-P", "RCC-Z", "RCC-S", "latP", "latZ", "latS"},
	}
	protos := []flowsim.Protocol{flowsim.PBFT, flowsim.Zyzzyva, flowsim.SBFT}
	for _, n := range ReplicaCounts {
		row := []string{fmt.Sprint(n)}
		var lats []string
		for _, p := range protos {
			res := flowsim.Evaluate(flowsim.Setup{
				Protocol: p, N: n, Concurrent: n, BatchSize: 100,
				Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC,
				OutOfOrder: true,
			})
			row = append(row, ktps(res.Throughput))
			lats = append(lats, seconds(res.Latency))
		}
		row = append(row, lats...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---------------------------------------------------------------------------
// §V-E summary ratios
// ---------------------------------------------------------------------------

// Summary computes the §V-E headline ratios ("RCC achieves up to X× higher
// throughput than ...") from the Fig. 8 sweeps.
func Summary() *Table {
	t := &Table{
		ID:     "summary",
		Title:  "Peak RCC advantage across n ∈ {4..91} (paper: fail 2.77/1.53/38/82; no-fail 2/1.83/33/1.45)",
		Header: []string{"baseline", "no-failure ×", "single-failure ×"},
	}
	ratio := func(p flowsim.Protocol, fail int) float64 {
		best := 0.0
		for _, n := range ReplicaCounts {
			rcc := flowsim.Evaluate(flowsim.Setup{
				Protocol: flowsim.PBFT, N: n, Concurrent: n, BatchSize: 100,
				Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC,
				OutOfOrder: true, Failures: fail,
			}).Throughput
			other := flowsim.Evaluate(flowsim.Setup{
				Protocol: p, N: n, Concurrent: 1, BatchSize: 100,
				Crypto: crypto.SchemeMAC, ClientSig: crypto.SchemeMAC,
				OutOfOrder: true, Failures: fail,
			}).Throughput
			if other > 0 && rcc/other > best {
				best = rcc / other
			}
		}
		return best
	}
	for _, p := range []struct {
		name  string
		proto flowsim.Protocol
	}{
		{"SBFT", flowsim.SBFT},
		{"PBFT", flowsim.PBFT},
		{"HotStuff", flowsim.HotStuff},
		{"Zyzzyva", flowsim.Zyzzyva},
	} {
		t.Rows = append(t.Rows, []string{
			p.name,
			fmt.Sprintf("%.2f", ratio(p.proto, 0)),
			fmt.Sprintf("%.2f", ratio(p.proto, 1)),
		})
	}
	return t
}

// All returns every flow-model experiment (the simnet-driven Fig. 6 and
// Fig. 10 live in their own files because they execute real protocol state
// machines).
func All() []*Table {
	return []*Table{
		Fig1(20), Fig1(400),
		Fig7Left(), Fig7Right(),
		Fig8a(), Fig8b(), Fig8c(), Fig8d(),
		Fig8e(), Fig8f(), Fig8g(), Fig8h(),
		Fig9(), Summary(),
	}
}
