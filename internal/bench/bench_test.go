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

func TestAllTablesWellFormed(t *testing.T) {
	for _, tab := range All() {
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
}

func TestFig6MatchesPaperTable(t *testing.T) {
	tab := Fig6()
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

func TestFig8aRCCWinsEverywhereAbove4(t *testing.T) {
	tab := Fig8a()
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[0])
		if n <= 4 {
			continue
		}
		rccn := parseK(t, row[1])
		for col := 4; col <= 7; col++ { // PBFT, Zyzzyva, SBFT, HotStuff
			if rccn < parseK(t, row[col]) {
				t.Fatalf("n=%d: RCCn %.1f below %s %.1f", n, rccn, tab.Header[col], parseK(t, row[col]))
			}
		}
	}
}

func TestFig1ConcurrencyDominates(t *testing.T) {
	for _, txn := range []int{20, 400} {
		tab := Fig1(txn)
		for _, row := range tab.Rows {
			if parseK(t, row[3]) <= parseK(t, row[1]) {
				t.Fatalf("txn=%d n=%s: Tcmax not above Tmax", txn, row[0])
			}
		}
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

func TestSummaryRatiosWithinBands(t *testing.T) {
	tab := Summary()
	bands := map[string][2]float64{ // paper: 2.77 / 1.53 / 38 / 82 under failure
		"SBFT":     {1.8, 4.5},
		"PBFT":     {1.2, 4.0},
		"HotStuff": {20, 60},
		"Zyzzyva":  {40, 130},
	}
	for _, row := range tab.Rows {
		band, ok := bands[row[0]]
		if !ok {
			t.Fatalf("unexpected baseline %q", row[0])
		}
		fail := parseK(t, row[2])
		if fail < band[0] || fail > band[1] {
			t.Errorf("%s single-failure ratio %.2f outside [%.1f, %.1f]", row[0], fail, band[0], band[1])
		}
	}
}

func TestValidateSimulatorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("validate runs seconds of simulated consensus")
	}
	tab, err := Validate()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("simulators contradict at n=%s: %v", row[0], row)
		}
	}
	// The protocol-level simulation must show RCC strictly ahead of PBFT
	// at n=7 (the concurrency advantage the paper measures).
	last := tab.Rows[len(tab.Rows)-1]
	rcc := parseK(t, last[1])
	pbft := parseK(t, last[2])
	if rcc < 1.5*pbft {
		t.Fatalf("simnet RCC advantage %.2f× at n=7, want >= 1.5×", rcc/pbft)
	}
}
