package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: p2pbound
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFilterProcessBatch/layout=classic/scheme=perindex         	24801018	        97.67 ns/op	       0 B/op	       0 allocs/op
BenchmarkFilterProcessBatch/layout=blocked                         	43117920	        56.83 ns/op	       0 B/op	       0 allocs/op
BenchmarkLimiterProcessBatch-4   	 5000000	       120.4 ns/op	  8300000 packets/sec	       0 B/op	       0 allocs/op
BenchmarkNoMem   	 1000	       42.5 ns/op
PASS
ok  	p2pbound	7.632s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "p2pbound" {
		t.Fatalf("header context wrong: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkFilterProcessBatch/layout=blocked" {
		t.Fatalf("name = %q", b.Name)
	}
	if b.Iterations != 43117920 || b.NsPerOp != 56.83 {
		t.Fatalf("iterations/ns wrong: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 0 || b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Fatalf("benchmem fields wrong: %+v", b)
	}
	// Custom ReportMetric units land in extra.
	lim := rep.Benchmarks[2]
	if got := lim.Extra["packets/sec"]; got != 8300000 {
		t.Fatalf("packets/sec = %v", got)
	}
	// A line without -benchmem leaves the memory fields absent, not zero.
	nomem := rep.Benchmarks[3]
	if nomem.BytesPerOp != nil || nomem.AllocsPerOp != nil {
		t.Fatalf("memory fields should be nil without -benchmem: %+v", nomem)
	}
}

// TestFinishedRejectsCutRuns: a run whose test binary died part way —
// a timeout, a panic, a kill — or whose benchmark failed must not pass
// as a report, however many result lines it printed first.
func TestFinishedRejectsCutRuns(t *testing.T) {
	complete, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := complete.finished(); err != nil {
		t.Fatalf("complete run rejected: %v", err)
	}
	cut := sample[:strings.Index(sample, "BenchmarkNoMem")]
	failed := strings.Replace(sample, "PASS\nok  \tp2pbound", "--- FAIL: BenchmarkOffloadPublish\nFAIL\nexit status 1\nFAIL\tp2pbound", 1)
	timedOut := cut + "panic: test timed out after 10m0s\n\ngoroutine 1 [running]:\nFAIL\tp2pbound\t600.012s\n"
	for name, in := range map[string]string{"truncated": cut, "failed": failed, "timed out": timedOut} {
		rep, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Benchmarks) == 0 {
			t.Fatalf("%s: fixture holds no results", name)
		}
		if err := rep.finished(); err == nil {
			t.Errorf("%s run accepted with %d results", name, len(rep.Benchmarks))
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok p2pbound 1.0s\n")); err == nil {
		t.Fatal("empty benchmark output accepted")
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	in := "BenchmarkFoo: some log output\nBenchmarkBar   	 100	 5.0 ns/op\n"
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkBar" {
		t.Fatalf("got %+v", rep.Benchmarks)
	}
}

// TestParseFoldsRepeatedRuns pins the -count fold: one entry per
// benchmark in first-appearance order, medians and ns/op quartiles over
// its runs, the run count, and GOMAXPROCS from the name suffix.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	in := `cpu: test
BenchmarkA-2   	 100	 40.0 ns/op	 10.0 packets/sec	 8 B/op	 1 allocs/op
BenchmarkA-2   	 300	 10.0 ns/op	 30.0 packets/sec	 8 B/op	 1 allocs/op
BenchmarkB-2   	 7	 5.0 ns/op
BenchmarkA-2   	 200	 20.0 ns/op	 20.0 packets/sec	 8 B/op	 1 allocs/op
BenchmarkA-2   	 400	 30.0 ns/op	 40.0 packets/sec	 16 B/op	 3 allocs/op
BenchmarkA-4   	 50	 99.0 ns/op	 1.0 packets/sec	 8 B/op	 1 allocs/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	a, b, a4 := rep.Benchmarks[0], rep.Benchmarks[1], rep.Benchmarks[2]
	if a.Name != "BenchmarkA" || a.GOMAXPROCS != 2 || a.Runs != 4 {
		t.Fatalf("A: %+v", a)
	}
	// ns/op 10, 20, 30, 40: median 25, quartiles 17.5 and 32.5.
	if a.NsPerOp != 25 || a.NsPerOpQ1 != 17.5 || a.NsPerOpQ3 != 32.5 {
		t.Fatalf("A ns/op median %v [%v, %v], want 25 [17.5, 32.5]", a.NsPerOp, a.NsPerOpQ1, a.NsPerOpQ3)
	}
	if a.Iterations != 250 || *a.BytesPerOp != 8 || *a.AllocsPerOp != 1 || a.Extra["packets/sec"] != 25 {
		t.Fatalf("A medians: %+v extra %v", a, a.Extra)
	}
	// A single run keeps its values and gets no spread fields.
	if b.Name != "BenchmarkB" || b.Runs != 0 || b.NsPerOp != 5 || b.NsPerOpQ1 != 0 || b.Iterations != 7 {
		t.Fatalf("B: %+v", b)
	}
	if a4.Name != "BenchmarkA" || a4.GOMAXPROCS != 4 || a4.NsPerOp != 99 {
		t.Fatalf("A-4: %+v", a4)
	}
}
