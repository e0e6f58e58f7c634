package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// comparison is one end-to-end metric of one workload in two sets of runs.
type comparison struct {
	base, head [3]float64 // first quartile, median, third quartile
	pairs      int
	wins       int // pairs in which the new run reads better; ties count for neither
	verdict    string
}

// compareMetric judges new runs against base runs of one metric, pairing
// them in order:
//
//   - better: at least ten pairs, the new run wins at least nine tenths of
//     them, and the medians differ by more than the base runs' spread (the
//     distance between their quartiles);
//   - worse: the new median is worse than the base median by more than the
//     metric's bound;
//   - unresolved: the base spread is wider than the bound, so a difference
//     within the bound cannot be told from noise, unless every new run reads
//     better than every base run;
//   - unchanged: otherwise.
func compareMetric(def metricDef, base, head []float64) comparison {
	c := comparison{base: quartiles(base), head: quartiles(head)}
	sign := 1.0
	if def.better == "lower" {
		sign = -1
	}
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		if (head[i]-base[i])*sign > 0 {
			c.wins++
		}
	}
	bmed, hmed := c.base[1], c.head[1]
	spread := c.base[2] - c.base[0]
	worseBy := (bmed - hmed) * sign / math.Abs(bmed)
	allBetter := minOf(head) > maxOf(base)
	if sign < 0 {
		allBetter = maxOf(head) < minOf(base)
	}
	switch {
	case c.pairs >= 10 && c.wins*10 >= 9*c.pairs && math.Abs(hmed-bmed) > spread:
		c.verdict = "better"
	case worseBy > def.bound:
		c.verdict = "worse"
	case spread > def.bound*math.Abs(bmed) && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// compareFiles compares every workload × end-to-end metric of two files of
// run output, such as two sets of `run.sh --workload W` runs appended to
// one file each. Runs flagged host_drift are refused.
func compareFiles(basePath, headPath string, w io.Writer) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	head, err := readReports(headPath)
	if err != nil {
		return err
	}
	var drifted []string
	for _, set := range []struct {
		path string
		reps []*report
	}{{basePath, base}, {headPath, head}} {
		for _, r := range set.reps {
			if r.HostDrift {
				drifted = append(drifted, fmt.Sprintf("%s: %s seed %d (calib %.4g -> %.4g ns)",
					set.path, r.Workload, r.Seed, r.CalibBefore, r.CalibAfter))
			}
		}
	}
	if len(drifted) > 0 {
		return fmt.Errorf("refusing runs whose host changed speed during the run:\n  %s", strings.Join(drifted, "\n  "))
	}
	byWorkload := func(reps []*report) map[string][]*report {
		m := map[string][]*report{}
		for _, r := range reps {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for name := range bw {
		if _, ok := hw[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("%s and %s have no workload in common", basePath, headPath)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tbound\twins/pairs\tverdict")
	for _, name := range names {
		for _, def := range e2eMetrics {
			c := compareMetric(def, values(bw[name], def.name), values(hw[name], def.name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%g\t%d/%d\t%s\n",
				name, def.name, def.unit, c.base[1], c.base[0], c.base[2],
				c.head[1], c.head[0], c.head[2], def.bound, c.wins, c.pairs, c.verdict)
		}
	}
	return tw.Flush()
}

// readReports reads the report lines of a file of run output.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"report":`)) {
			continue
		}
		var v struct{ Report *report }
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, v.Report)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no report lines", path)
	}
	return reps, nil
}

func values(reps []*report, name string) []float64 {
	v := make([]float64, 0, len(reps))
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of x by
// the method of Python's statistics.quantiles(x, n=4), the exclusive one.
func quartiles(x []float64) [3]float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func minOf(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		m = math.Max(m, v)
	}
	return m
}
