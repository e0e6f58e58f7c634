// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report, so benchmark results can be committed,
// diffed, and regression-checked in CI instead of living in terminal
// scrollback.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -o BENCH_p2pbound.json
//
// Each benchmark contributes one entry with the iteration count, ns/op,
// and — when -benchmem is in effect — B/op and allocs/op; any further
// metric pairs (e.g. packets/sec from b.ReportMetric) land in "extra"
// keyed by unit. The -N suffix go test appends to a name when
// GOMAXPROCS is above 1 is recorded as "gomaxprocs". The result lines
// that -count prints for one benchmark fold into one entry: "runs"
// counts them, every value is the median over the runs, and
// "ns_per_op_q1"/"ns_per_op_q3" are the quartiles of ns/op. A benchmark
// that ran once has no spread fields. The goos/goarch/pkg/cpu header
// lines are captured so a committed report records what machine
// produced it. Exits nonzero, writing nothing, when the input contains
// no benchmark results, holds a FAIL line, or lacks the PASS or ok line
// a finished run ends with, so a failed, killed or timed-out benchmark
// run cannot silently produce an empty or partial artifact.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Report is the top-level JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`

	// failed and passed record go test's status lines: any FAIL line,
	// and the PASS or ok line that ends a finished run.
	failed, passed bool
}

// finished returns an error unless the input was a whole, passing go
// test run. A benchmark that fails, or a test binary that panics, times
// out or is killed, leaves a FAIL line or no final PASS/ok line, and
// its partial results must not become a report.
func (r *Report) finished() error {
	switch {
	case r.failed:
		return errors.New("the benchmark run failed (FAIL line on stdin)")
	case !r.passed:
		return errors.New("stdin ends before go test's final PASS or ok line (was the run cut short?)")
	}
	return nil
}

// Benchmark is one benchmark's `BenchmarkX-P  N  v unit [v unit ...]`
// result line, or the fold of its repeated lines.
type Benchmark struct {
	Name        string             `json:"name"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Runs        int                `json:"runs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpQ1   float64            `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3   float64            `json:"ns_per_op_q3,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err == nil {
		err = rep.finished()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), *out)
	}
}

// parse reads go test benchmark output and collects header context and
// result lines, folding the repeated lines of one benchmark into one
// entry in the order benchmarks first appear, and noting go test's
// PASS, ok and FAIL status lines. Other lines (test output) are skipped.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	runs := map[string][]map[string]float64{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case line == "PASS" || strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "ok\t"):
			rep.passed = true
		case strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL"):
			rep.failed = true
		case strings.HasPrefix(line, "Benchmark"):
			if name, vals, ok := parseResult(line); ok {
				if runs[name] == nil {
					order = append(order, name)
				}
				runs[name] = append(runs[name], vals)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(name, runs[name]))
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin (did the benchmark run fail?)")
	}
	return rep, nil
}

// parseResult parses one result line: name, iteration count, then
// (value, unit) pairs, returned by unit with the count under
// "iterations". Returns ok=false for lines that merely start with
// "Benchmark" (e.g. a benchmark's own log output).
func parseResult(line string) (name string, vals map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", nil, false
	}
	vals = map[string]float64{"iterations": float64(iters)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[fields[i+1]] = v
	}
	_, ok = vals["ns/op"]
	return fields[0], vals, ok
}

// fold builds one benchmark's entry from the values of its runs: each
// value is its median over the runs that report it, and a benchmark
// that ran more than once also records the run count and the ns/op
// quartiles.
func fold(name string, runs []map[string]float64) Benchmark {
	b := Benchmark{Name: name}
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			b.Name, b.GOMAXPROCS = name[:i], procs
		}
	}
	done := map[string]bool{}
	for _, run := range runs {
		for unit := range run {
			if done[unit] {
				continue
			}
			done[unit] = true
			v := quantile(runs, unit, 0.5)
			switch unit {
			case "iterations":
				b.Iterations = int64(math.Round(v))
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = &v
			case "allocs/op":
				b.AllocsPerOp = &v
			default:
				if b.Extra == nil {
					b.Extra = make(map[string]float64)
				}
				b.Extra[unit] = v
			}
		}
	}
	if len(runs) > 1 {
		b.Runs = len(runs)
		b.NsPerOpQ1, b.NsPerOpQ3 = quantile(runs, "ns/op", 0.25), quantile(runs, "ns/op", 0.75)
	}
	return b
}

// quantile returns the p-quantile of unit's values over runs,
// interpolating linearly between the two nearest ranks.
func quantile(runs []map[string]float64, unit string, p float64) float64 {
	var xs []float64
	for _, run := range runs {
		if v, ok := run[unit]; ok {
			xs = append(xs, v)
		}
	}
	sort.Float64s(xs)
	h := float64(len(xs)-1) * p
	lo := int(h)
	if lo+1 == len(xs) {
		return xs[lo]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}
