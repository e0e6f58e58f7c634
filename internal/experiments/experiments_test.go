package experiments

import (
	"strings"
	"testing"
	"time"
)

// expSuite is shared by the experiment tests; generating and analyzing a
// trace is the expensive part.
var expSuite = func() *Suite {
	s, err := NewSuite(DefaultTraceConfig(60*time.Second, 0.05, 11))
	if err != nil {
		panic(err)
	}
	return s
}()

func TestRunSummaryShape(t *testing.T) {
	r := expSuite.RunSummary()
	if r.Connections < 500 {
		t.Fatalf("connections = %d", r.Connections)
	}
	if r.TCPConnFrac < 0.2 || r.TCPConnFrac > 0.4 {
		t.Fatalf("TCP conn frac = %g", r.TCPConnFrac)
	}
	if r.UploadByteFrac < 0.7 {
		t.Fatalf("upload byte frac = %g — the trace must be upload-dominated", r.UploadByteFrac)
	}
	if !strings.Contains(r.Render(), "paper: 89.8%") {
		t.Fatal("render must cite the paper's value")
	}
}

func TestRunT2CoversAllGroups(t *testing.T) {
	r := expSuite.RunT2()
	groups := make(map[string]bool, len(r.Rows))
	var connSum float64
	for _, row := range r.Rows {
		groups[row.Group] = true
		connSum += row.ConnFrac
	}
	for _, g := range []string{"HTTP", "bittorrent", "gnutella", "edonkey", "UNKNOWN", "Others"} {
		if !groups[g] {
			t.Errorf("group %s missing", g)
		}
	}
	if connSum < 0.999 || connSum > 1.001 {
		t.Fatalf("connection shares sum to %g", connSum)
	}
	if !strings.Contains(r.Render(), "bittorrent") {
		t.Fatal("render incomplete")
	}
}

func TestRunF2F3Structure(t *testing.T) {
	f2 := expSuite.RunF2()
	f3 := expSuite.RunF3()
	for _, r := range []*PortCDFResult{f2, f3} {
		if len(r.Classes["ALL"]) == 0 {
			t.Fatalf("%s: no ALL curve", r.Figure)
		}
		if len(r.Checkpoints) == 0 {
			t.Fatalf("%s: no checkpoints", r.Figure)
		}
		if r.Render() == "" {
			t.Fatalf("%s: empty render", r.Figure)
		}
	}
	// Figure 2 structure: Non-P2P concentrates under 1024; P2P does not.
	var nonP2P1024, p2p1024 float64
	for _, cp := range f2.Checkpoints {
		if cp.Port != 1024 {
			continue
		}
		switch cp.Class {
		case "Non-P2P":
			nonP2P1024 = cp.Frac
		case "P2P":
			p2p1024 = cp.Frac
		}
	}
	if nonP2P1024 < 0.5 {
		t.Errorf("Non-P2P F(1024) = %g, want > 0.5", nonP2P1024)
	}
	if p2p1024 > 0.2 {
		t.Errorf("P2P F(1024) = %g, want < 0.2", p2p1024)
	}
}

func TestRunF4Milestones(t *testing.T) {
	r := expSuite.RunF4()
	if r.N < 100 {
		t.Fatalf("lifetime samples = %d", r.N)
	}
	if r.F45 < 0.8 {
		t.Fatalf("F(45s) = %g", r.F45)
	}
	if r.F240 < r.F45 {
		t.Fatal("CDF not monotone")
	}
	if r.TailBeyond > 0.05 {
		t.Fatalf("tail beyond 810s = %g", r.TailBeyond)
	}
}

func TestRunF5Milestones(t *testing.T) {
	r := expSuite.RunF5()
	if r.N < 1000 {
		t.Fatalf("delay samples = %d", r.N)
	}
	if r.F2p8 < 0.95 {
		t.Fatalf("F(2.8s) = %g, paper says 0.99", r.F2p8)
	}
	if r.P50 > 0.5 {
		t.Fatalf("median delay = %g s", r.P50)
	}
}

func TestRunA1MatchesPaperBounds(t *testing.T) {
	r, err := RunA1(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoryKB != 512 {
		t.Fatalf("memory = %d KB, want 512", r.MemoryKB)
	}
	for _, row := range r.Rows {
		// The paper rounds to whole thousands; stay within 5 %.
		lo := float64(row.PaperBound) * 0.95
		hi := float64(row.PaperBound) * 1.05
		if f := float64(row.Capacity); f < lo || f > hi {
			t.Errorf("p=%.2f: capacity %d vs paper %d", row.P, row.Capacity, row.PaperBound)
		}
	}
	for _, mc := range r.MonteCarlo {
		if mc.Analytical == 0 {
			continue
		}
		if ratio := mc.Measured / mc.Analytical; ratio < 0.4 || ratio > 2.5 {
			t.Errorf("c=%d m=%d: measured %.5f vs analytical %.5f", mc.C, mc.M, mc.Measured, mc.Analytical)
		}
	}
	if !strings.Contains(r.Render(), "167000") {
		t.Fatal("render must include the paper bounds")
	}
}

// TestRunF8Shape: both filters land on the slope-≈1 line, with the SPI
// rate at or slightly above the bitmap rate (the Figure 8 relationship).
func TestRunF8Shape(t *testing.T) {
	r, err := RunF8(expSuite.Trace.Packets, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.SPIDropRate <= 0 || r.BitmapDropRate <= 0 {
		t.Fatalf("degenerate drop rates: spi=%g bitmap=%g", r.SPIDropRate, r.BitmapDropRate)
	}
	if r.BitmapDropRate > r.SPIDropRate*1.1 {
		t.Errorf("bitmap drop rate %.4f exceeds SPI %.4f — the SPI filter drops more precisely",
			r.BitmapDropRate, r.SPIDropRate)
	}
	if ratio := r.BitmapDropRate / r.SPIDropRate; ratio < 0.6 {
		t.Errorf("drop-rate ratio %.2f too far below 1 (paper: 1.51/1.56)", ratio)
	}
	if r.Slope < 0.7 || r.Slope > 1.3 {
		t.Errorf("scatter slope = %.3f, want ≈1", r.Slope)
	}
	if r.Corr < 0.8 {
		t.Errorf("correlation = %.3f, want high", r.Corr)
	}
	if r.BitmapBytes != 512*1024 {
		t.Errorf("bitmap memory = %d", r.BitmapBytes)
	}
	if r.SPIPeakFlows <= 0 {
		t.Error("SPI peak flows not tracked")
	}
}

// TestRunF9Limits: filtered upload is substantially below the original,
// and download shrinks too.
func TestRunF9Limits(t *testing.T) {
	scale := 0.05
	low, high := 50e6*scale, 100e6*scale
	r, err := RunF9(expSuite.Trace.Packets, low, high, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.OriginalUpMean <= high {
		t.Skipf("trace upload %.1f Mbps below H; limiting not exercised", r.OriginalUpMean/1e6)
	}
	if r.FilteredUpMean >= r.OriginalUpMean*0.95 {
		t.Fatalf("filtered upload %.1f Mbps barely below original %.1f Mbps",
			r.FilteredUpMean/1e6, r.OriginalUpMean/1e6)
	}
	if r.Blocked == 0 {
		t.Fatal("no connections were blocked")
	}
	if r.FilteredDownMean > r.OriginalDownMean {
		t.Fatal("filtered download exceeds original")
	}
}

func TestRunX1SweepStructure(t *testing.T) {
	r, err := RunX1(expSuite.Trace.Packets, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 10 {
		t.Fatalf("sweep rows = %d", len(r.Rows))
	}
	// Utilization must fall as N grows (same trace, same marks).
	var prev float64 = 1
	for _, row := range r.Rows[:5] {
		if row.Div.Utilization > prev*1.01 {
			t.Errorf("utilization did not fall with N: %v", row)
		}
		prev = row.Div.Utilization
	}
	// FN rate grows as Δt shrinks at fixed T_e (coarser retention floor).
	last4 := r.Rows[len(r.Rows)-4:]
	if last4[0].Div.FNRate() > last4[3].Div.FNRate()+0.01 {
		t.Errorf("FN rate fell with finer rotation: k=2 %.4f vs k=20 %.4f",
			last4[0].Div.FNRate(), last4[3].Div.FNRate())
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestRunX2SmallDivergence: at the paper's configuration the bitmap filter
// tracks the exact reference almost perfectly on this workload.
func TestRunX2SmallDivergence(t *testing.T) {
	r, err := RunX2(expSuite.Trace.Packets, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Div.Inbound == 0 {
		t.Fatal("no inbound packets measured")
	}
	if fp := r.Div.FPRate(); fp > 0.01 {
		t.Errorf("FP rate = %.4f, want < 1%%", fp)
	}
	if fn := r.Div.FNRate(); fn > 0.01 {
		t.Errorf("FN rate = %.4f, want < 1%%", fn)
	}
}

// TestRunX3HolePunch: partial-tuple hashing admits essentially every
// shifted-port reply, full-tuple hashing essentially none.
func TestRunX3HolePunch(t *testing.T) {
	r, err := RunX3(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.AdmittedHolePunch < r.Sessions*99/100 {
		t.Fatalf("hole-punch mode admitted %d/%d", r.AdmittedHolePunch, r.Sessions)
	}
	if r.AdmittedFull > r.Sessions/100 {
		t.Fatalf("full-tuple mode admitted %d/%d", r.AdmittedFull, r.Sessions)
	}
}

// TestRunX4HashFamilies pins every X4 row exactly: each family's
// divergence on the shared trace, as the library measured it while the
// Jenkins and Mix constructions still lived in internal/hashes. The
// rows must not move when a family's code moves.
func TestRunX4HashFamilies(t *testing.T) {
	r, err := RunX4(expSuite.Trace.Packets, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []X4Row{
		{"fnv-double", 12, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 1, FalseNegatives: 0, Utilization: 0.197021484375}},
		{"jenkins", 12, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 1, FalseNegatives: 0, Utilization: 0.193603515625}},
		{"mix", 12, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 0, FalseNegatives: 0, Utilization: 0.197265625}},
		{"fnv-double", 16, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 0, FalseNegatives: 0, Utilization: 0.013671875}},
		{"jenkins", 16, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 0, FalseNegatives: 0, Utilization: 0.013641357421875}},
		{"mix", 16, Divergence{Inbound: 16225, Stateless: 403, FalsePositives: 0, FalseNegatives: 0, Utilization: 0.013702392578125}},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(want))
	}
	for i, row := range r.Rows {
		if row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestRunT1RowOrder: the Table 1 rows are built from a map, so every
// run must sort them the same way — by ground-truth count descending,
// then by app name — or two runs of benchreport print different bytes.
// The shared trace has several apps with one flow each.
func TestRunT1RowOrder(t *testing.T) {
	var first []T1Row
	for run := 0; run < 10; run++ {
		rows := expSuite.RunT1Accuracy().Rows
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if a.Truth < b.Truth || a.Truth == b.Truth && a.App.String() >= b.App.String() {
				t.Fatalf("run %d: row %d (%v, %d) before row %d (%v, %d)", run, i-1, a.App, a.Truth, i, b.App, b.Truth)
			}
		}
		if run == 0 {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d: %d rows, first run had %d", run, len(rows), len(first))
		}
		for i := range rows {
			if rows[i] != first[i] {
				t.Fatalf("run %d: row %d = %+v, first run had %+v", run, i, rows[i], first[i])
			}
		}
	}
}

// TestRunT1Accuracy: the Table 1 pipeline must identify the signature-
// bearing protocols with high precision and recall against ground truth.
func TestRunT1Accuracy(t *testing.T) {
	r := expSuite.RunT1Accuracy()
	if r.Matched < 500 {
		t.Fatalf("matched connections = %d", r.Matched)
	}
	byApp := make(map[string]T1Row, len(r.Rows))
	for _, row := range r.Rows {
		byApp[row.App.String()] = row
	}
	for _, app := range []string{"bittorrent", "edonkey", "gnutella", "http"} {
		row, ok := byApp[app]
		if !ok {
			t.Errorf("no accuracy row for %s", app)
			continue
		}
		if p := row.Precision(); p < 0.85 {
			t.Errorf("%s precision = %.3f, want >= 0.85", app, p)
		}
		if rec := row.Recall(); rec < 0.75 {
			t.Errorf("%s recall = %.3f, want >= 0.75", app, rec)
		}
	}
	if len(r.MethodCounts) == 0 || r.MethodCounts["pattern"] == 0 {
		t.Fatalf("method counts missing pattern identifications: %v", r.MethodCounts)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}
