// Package bench holds the experiments that drive the program's own state
// machines: the Fig. 6 ordering attack on the real bank application, RCC
// against PBFT on the message-level simulator (scaling), the Fig. 10 failure
// timeline on the simulator, and a flight-recorder incident on a durable
// in-process cluster. cmd/rccbench prints them; REPRODUCTION.md says which
// paper claim each one backs. The live program's throughput and latency
// come from the benchmark/ module, not from here.
package bench

import (
	"fmt"
	"strings"
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
