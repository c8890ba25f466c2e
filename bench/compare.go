package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a -out file: one result per line. Traced runs and
// incorrect runs are left out — neither is evidence about end-to-end
// speed.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace && r.Correct {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], &r)
		}
	}
	return byWorkload, sc.Err()
}

func values(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, positive
// when worse, for a metric whose better direction is given.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the no-regression rule to one workload x metric: B's
// median may not be worse than A's by more than the bound; where A's
// own quartile spread is wider than the bound the pair is unresolved,
// not ok, unless every run of B reads better than every run of A.
func verdict(a, b []float64, m metricSpec) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	if worsening(median(a), median(b), m.Better) > m.Bound {
		return "worse"
	}
	if quartileSpread(a) > m.Bound {
		for _, x := range a {
			for _, y := range b {
				if worsening(x, y, m.Better) >= 0 {
					return "unresolved"
				}
			}
		}
	}
	return "ok"
}

// compareFiles prints, per workload x end-to-end metric, both medians
// with their quartile spreads, the ratio B/A, the bound and the
// verdict, and reports whether any pair is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\nratio = median B / median A; spread = (Q3-Q1)/median over a side's runs\n\n", pathA, pathB)
	fmt.Fprintf(w, "%-10s %-16s %4s %12s %7s %4s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "nA", "median A", "spread", "nB", "median B", "spread", "ratio", "bound", "verdict")
	for _, spec := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a[spec.Name], m.Name), values(b[spec.Name], m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m)
			worse = worse || v == "worse"
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			fmt.Fprintf(w, "%-10s %-16s %4d %12.4f %6.1f%% %4d %12.4f %6.1f%% %8.4f %5.0f%%  %s (%s is better)\n",
				spec.Name, m.Name, len(va), median(va), 100*quartileSpread(va),
				len(vb), median(vb), 100*quartileSpread(vb), ratio, 100*m.Bound, v, m.Better)
		}
	}
	return worse, nil
}
