package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var citeRE = regexp.MustCompile("rccbench -exp ([A-Za-z0-9_-]+)")

// TestScorecardMatchesExperiments keeps REPRODUCTION.md and -list in step:
// every experiment -list prints backs at least one scorecard row, and every
// experiment the file cites is still registered.
func TestScorecardMatchesExperiments(t *testing.T) {
	raw, err := os.ReadFile("../../REPRODUCTION.md")
	if err != nil {
		t.Fatal(err)
	}
	inRows := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range citeRE.FindAllStringSubmatch(line, -1) {
			inRows[m[1]] = true
		}
	}
	listed := ids()
	for _, id := range listed {
		if !inRows[id] {
			t.Errorf("rccbench -list prints %q, but no REPRODUCTION.md row cites `rccbench -exp %s`", id, id)
		}
	}
	for _, m := range citeRE.FindAllStringSubmatch(string(raw), -1) {
		if id := m[1]; id != "all" && !slices.Contains(listed, id) {
			t.Errorf("REPRODUCTION.md cites `rccbench -exp %s`, which is not registered", id)
		}
	}
}
