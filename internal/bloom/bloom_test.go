package bloom

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := New(3, 33); err == nil {
		t.Fatal("nbits=33 accepted")
	}
	f, err := New(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.vec.Len() != 1024 || len(f.sums) != 3 || f.vec.Bytes() != 128 {
		t.Fatalf("geometry wrong: bits=%d m=%d bytes=%d", f.vec.Len(), len(f.sums), f.vec.Bytes())
	}
}

// TestNoFalseNegatives property: every added key tests positive.
func TestNoFalseNegatives(t *testing.T) {
	f, err := New(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	check := func(keys [][]byte) bool {
		f.vec.Clear()
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasuredFPPMatchesEquation2 fills the filter and compares the
// measured false-positive rate against p = U^m (Equation 2).
func TestMeasuredFPPMatchesEquation2(t *testing.T) {
	f, err := New(3, 14) // 16384 bits
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		f.Add([]byte("member-" + strconv.Itoa(i)))
	}
	predicted := math.Pow(f.vec.Utilization(), 3) // Equation 2: p = U^m
	const probes = 50_000
	hits := 0
	for i := 0; i < probes; i++ {
		if f.Test([]byte("outsider-" + strconv.Itoa(i))) {
			hits++
		}
	}
	measured := float64(hits) / probes
	if predicted <= 0 || measured <= 0 {
		t.Fatalf("degenerate rates: predicted=%g measured=%g", predicted, measured)
	}
	if ratio := measured / predicted; ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("measured FPP %.5f vs Equation 2 %.5f (ratio %.2f)", measured, predicted, ratio)
	}
}

// TestPenetrationApproximation: Equation 3 approximates Equation 2 at low
// utilization.
func TestPenetrationApproximation(t *testing.T) {
	f, err := New(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	const c = 15_000
	for i := 0; i < c; i++ {
		f.Add([]byte("conn-" + strconv.Itoa(i)))
	}
	exact := math.Pow(f.vec.Utilization(), 3) // Equation 2: p = U^m
	approx := Penetration(c, 3, 20)
	if ratio := exact / approx; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("Equation 2 (%.6g) vs Equation 3 (%.6g): ratio %.2f", exact, approx, ratio)
	}
}

// TestOptimalMMinimizesPenetration property: Equation 5's m yields a lower
// (or equal) analytical penetration than neighbouring integer choices.
func TestOptimalMMinimizesPenetration(t *testing.T) {
	const nbits = 20
	for _, c := range []int{50_000, 100_000, 150_000} {
		opt := OptimalM(c, nbits)
		mOpt := int(math.Round(opt))
		if mOpt < 1 {
			mOpt = 1
		}
		pOpt := Penetration(c, mOpt, nbits)
		for _, m := range []int{mOpt - 2, mOpt - 1, mOpt + 1, mOpt + 2} {
			if m < 1 {
				continue
			}
			if p := Penetration(c, m, nbits); p < pOpt*0.999 {
				t.Errorf("c=%d: m=%d gives p=%.6g better than optimal m=%d (p=%.6g)", c, m, p, mOpt, pOpt)
			}
		}
	}
}

// TestCapacityBoundPaperValues reproduces the Section 5.1 worked example:
// for N=2^20 the capacity bounds at p = 10 %, 5 %, 1 % are roughly 167K,
// 125K (the paper rounds 128K down), and 83K.
func TestCapacityBoundPaperValues(t *testing.T) {
	tests := []struct {
		p      float64
		wantLo int
		wantHi int
	}{
		{0.10, 160_000, 175_000},
		{0.05, 120_000, 135_000},
		{0.01, 80_000, 90_000},
	}
	for _, tt := range tests {
		got := CapacityBound(tt.p, 20)
		if got < tt.wantLo || got > tt.wantHi {
			t.Errorf("CapacityBound(%.2f, 20) = %d, want in [%d, %d]", tt.p, got, tt.wantLo, tt.wantHi)
		}
	}
}

// TestCapacityBoundConsistency property: a filter tuned with the optimal m
// for the bound capacity achieves (approximately) the requested p.
func TestCapacityBoundConsistency(t *testing.T) {
	const nbits = 20
	for _, p := range []float64{0.10, 0.05, 0.01} {
		c := CapacityBound(p, nbits)
		m := OptimalM(c, nbits)
		achieved := math.Pow(float64(c)*m/float64(1<<nbits), m)
		if ratio := achieved / p; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("p=%.2f: achieved %.4f at capacity bound (ratio %.2f)", p, achieved, ratio)
		}
	}
}

func TestCapacityBoundEdges(t *testing.T) {
	if CapacityBound(0, 20) != 0 || CapacityBound(1, 20) != 0 || CapacityBound(-1, 20) != 0 {
		t.Fatal("degenerate p must yield zero capacity")
	}
}
