package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func parseK(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// checkWellFormed holds every table to the shape Render relies on: an ID and
// title, at least one row, each row as wide as the header, and a render that
// names the table. Each test below calls it on the table it already built.
func checkWellFormed(t *testing.T, tab *Table) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" {
		t.Fatalf("table missing ID/title: %+v", tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", tab.ID)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s row %d: %d cells, header has %d", tab.ID, i, len(row), len(tab.Header))
		}
	}
	if !strings.Contains(tab.Render(), tab.ID) {
		t.Fatalf("%s: render missing ID", tab.ID)
	}
}

func TestFig6MatchesPaperTable(t *testing.T) {
	tab := Fig6()
	checkWellFormed(t, tab)
	want := map[string][3]string{
		"original":          {"800", "300", "100"},
		"first T1, then T2": {"600", "200", "400"},
		"first T2, then T1": {"600", "500", "100"},
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w[0] || row[2] != w[1] || row[3] != w[2] {
				t.Fatalf("%s: got %v, want %v", row[0], row[1:], w)
			}
			delete(want, row[0])
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing scenarios: %v", want)
	}
	// The RCC row must match one of the two orders exactly.
	last := tab.Rows[len(tab.Rows)-1]
	if !(last[1] == "600" && (last[2] == "200" || last[2] == "500")) {
		t.Fatalf("RCC row inconsistent: %v", last)
	}
}

func TestFig10TimelineShape(t *testing.T) {
	cfg := DefaultFig10()
	cfg.Horizon = 24 * time.Second
	cfg.CrashP1At = 8 * time.Second
	cfg.CrashP2At = 16 * time.Second
	tab, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, tab)
	rccMin := int(^uint(0) >> 1)
	var rccPre int
	for i, row := range tab.Rows {
		r, _ := strconv.Atoi(row[1])
		if i < 3 { // pre-failure buckets
			rccPre += r
			continue
		}
		if r < rccMin {
			rccMin = r
		}
	}
	if rccPre == 0 {
		t.Fatal("no pre-failure throughput")
	}
	// RCC's wait-free recovery never drops throughput to zero.
	if rccMin == 0 {
		t.Fatal("RCC throughput hit zero — recovery was not wait-free")
	}
}

func TestSimnetRCCOutpacesPBFT(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling runs seconds of simulated consensus")
	}
	tab, err := Scaling()
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, tab)
	// The protocol-level simulation must show RCC strictly ahead of PBFT
	// at n=7 (the concurrency advantage the paper measures).
	last := tab.Rows[len(tab.Rows)-1]
	rcc := parseK(t, last[1])
	pbft := parseK(t, last[2])
	if rcc < 1.5*pbft {
		t.Fatalf("simnet RCC advantage %.2f× at n=7, want >= 1.5×", rcc/pbft)
	}
}
