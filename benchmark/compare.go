package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"slices"
	"syscall"
)

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Machine map[string]string `json:"machine"`
	Results []*result         `json:"results"`
}

// machineFacts records what the numbers depend on besides the code.
func machineFacts(outDir string) map[string]string {
	facts := map[string]string{
		"nproc":      fmt.Sprint(goruntime.NumCPU()),
		"gomaxprocs": fmt.Sprint(goruntime.GOMAXPROCS(0)),
		"go":         goruntime.Version(),
		"os_arch":    goruntime.GOOS + "/" + goruntime.GOARCH,
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		names := map[int64]string{0xef53: "ext2/3/4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs"}
		name, ok := names[int64(st.Type)]
		if !ok {
			name = fmt.Sprintf("type 0x%x", st.Type)
		}
		facts["data_fs"] = name
	}
	return facts
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median; ok
// is false with fewer than two runs.
func spread(xs []float64) (share float64, ok bool) {
	if len(xs) < 2 || median(xs) == 0 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs), true
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects metric name of workload over the valid, correct, untraced
// runs of a set.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Workload == workload && !r.Traced && r.Correct && r.Valid {
			if m, ok := r.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per end-to-end metric and workload, the medians of
// both sets, their ratio with its base, the bound and a verdict: ok,
// REGRESSED (B worse than A by more than the bound), or unresolved (a set's
// own run-to-run spread is wider than the bound, so the sets cannot be told
// apart). It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%v)\nB = %s (%v)\n", pathA, a.Machine, pathB, b.Machine)
	fmt.Fprintf(w, "%-10s %-15s %5s %12s %8s %12s %8s %16s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A iqr", "B median", "B iqr", "B/A (base A)", "bound", "verdict")
	for _, sp := range specs {
		for _, m := range endToEnd {
			va, vb := a.values(sp.name, m.name), b.values(sp.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if !m.lowerIsBetter {
				worse = -worse
			}
			sa, okA := spread(va)
			sb, okB := spread(vb)
			verdict := "ok"
			switch {
			case m.name != "setup_s" && ((okA && sa > m.bound) || (okB && sb > m.bound)):
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "REGRESSED"
				regressed = true
			}
			iqr := func(s float64, ok bool) string {
				if !ok {
					return "n/a"
				}
				return fmt.Sprintf("%.1f%%", 100*s)
			}
			fmt.Fprintf(w, "%-10s %-15s %2d/%-2d %12.4f %8s %12.4f %8s %9.4f of %-8.4g %5.0f%%  %s\n",
				sp.name, m.name, len(va), len(vb), ma, iqr(sa, okA), mb, iqr(sb, okB), mb/ma, ma, 100*m.bound, verdict)
		}
	}
	return regressed, nil
}
