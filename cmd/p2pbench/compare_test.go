package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	x := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(x), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if got, want := quartiles([]float64{3, 1, 2}), [3]float64{1, 2, 3}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// runs returns n synthetic readings around center, spread evenly over
// ±spread, in an order that does not sort them.
func runs(n int, center, spread float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		k := (i * 7) % n
		x[i] = center + spread*(2*float64(k)/float64(n-1)-1)
	}
	return x
}

func TestCompareMetric(t *testing.T) {
	pps := metricDef{"pps", "pkt/s", "higher", 0.10}
	lat := metricDef{"batch_p50_us", "us", "lower", 0.10}
	base := runs(10, 100, 2)
	for _, tc := range []struct {
		name string
		def  metricDef
		base []float64
		head []float64
		want string
	}{
		{"faster in every pair", pps, base, runs(10, 120, 2), "better"},
		{"same", pps, base, runs(10, 100.5, 2), "unchanged"},
		{"slower beyond the bound", pps, base, runs(10, 85, 2), "worse"},
		{"slower within the bound", pps, base, runs(10, 95, 2), "unchanged"},
		{"lower latency", lat, base, runs(10, 80, 2), "better"},
		{"higher latency beyond the bound", lat, base, runs(10, 115, 2), "worse"},
		{"base spread wider than the bound", pps, runs(10, 100, 30), runs(10, 103, 30), "unresolved"},
		// Nine pairs are not ten: no gain is claimed, but a clear win is
		// not unresolved either.
		{"too few pairs", pps, base[:9], runs(9, 120, 2), "unchanged"},
		{"wide spread, every new run better", pps, runs(10, 100, 30), runs(10, 200, 10), "better"},
		{"wide spread, too few pairs, every new run better", pps, runs(9, 100, 30), runs(9, 200, 10), "unchanged"},
	} {
		c := compareMetric(tc.def, tc.base, tc.head)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %d/%d, base %v, new %v), want %s",
				tc.name, c.verdict, c.wins, c.pairs, c.base, c.head, tc.want)
		}
	}
}

// writeRuns writes one report and result line per value of pps, as a run
// prints them.
func writeRuns(t *testing.T, path string, pps []float64, drift bool) {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range pps {
		rep := &report{Workload: "campus", Seed: uint64(i + 1), HostDrift: drift, CalibBefore: 2, CalibAfter: 2, Metrics: map[string]metric{}}
		for _, d := range e2eMetrics {
			rep.Metrics[d.name] = metric{Value: 1, Unit: d.unit}
		}
		rep.Metrics["pps"] = metric{Value: v, Unit: "pkt/s"}
		if err := printRun(&buf, rep, &result{Correct: true, Attempted: 1, Metrics: rep.Metrics}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base, head, drifted := filepath.Join(dir, "base"), filepath.Join(dir, "head"), filepath.Join(dir, "drifted")
	writeRuns(t, base, runs(10, 100, 2), false)
	writeRuns(t, head, runs(10, 120, 2), false)
	writeRuns(t, drifted, runs(10, 120, 2), true)

	var out bytes.Buffer
	if err := compareFiles(base, head, &out); err != nil {
		t.Fatal(err)
	}
	var ppsLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " pps ") {
			ppsLine = line
		}
	}
	if !strings.Contains(ppsLine, "better") || !strings.Contains(ppsLine, "10/10") {
		t.Errorf("pps row %q, want better with 10/10 wins:\n%s", ppsLine, out.String())
	}
	if strings.Count(out.String(), "unchanged") != len(e2eMetrics)-1 {
		t.Errorf("want every other metric unchanged:\n%s", out.String())
	}

	err := compareFiles(base, drifted, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "changed speed") {
		t.Errorf("comparing against drifted runs: err = %v, want a refusal", err)
	}
}

func TestCompareMetricAllZero(t *testing.T) {
	c := compareMetric(metricDef{"fpr", "fraction", "lower", 0.1}, []float64{0, 0, 0}, []float64{0, 0, 0})
	if math.IsNaN(c.base[1]) || c.verdict != "unchanged" {
		t.Errorf("all-zero metric: %+v", c)
	}
}
