package red

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewLinearValidation(t *testing.T) {
	tests := []struct {
		low, high float64
		ok        bool
	}{
		{50e6, 100e6, true},
		{0, 100e6, true},
		{-1, 100e6, false},
		{100e6, 100e6, false},
		{100e6, 50e6, false},
	}
	for _, tt := range tests {
		_, err := NewLinear(tt.low, tt.high)
		if (err == nil) != tt.ok {
			t.Errorf("NewLinear(%g, %g) error = %v, want ok=%v", tt.low, tt.high, err, tt.ok)
		}
	}
}

// TestLinearEquation1 pins the three branches of Equation 1.
func TestLinearEquation1(t *testing.T) {
	l, err := NewLinear(50e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		b    float64
		want float64
	}{
		{0, 0},
		{50e6, 0},   // b ≤ L
		{75e6, 0.5}, // midpoint of the ramp
		{60e6, 0.2}, // (60−50)/(100−50)
		{100e6, 1},  // b ≥ H
		{500e6, 1},
	}
	for _, tt := range tests {
		if got := l.Pd(tt.b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Pd(%g) = %g, want %g", tt.b, got, tt.want)
		}
	}
}

// TestLinearRange property: P_d is always in [0,1] and non-decreasing in
// the throughput.
func TestLinearRange(t *testing.T) {
	l, err := NewLinear(10, 90)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		pa, pb := l.Pd(a), l.Pd(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlways(t *testing.T) {
	if Always(1).Pd(123) != 1 || Always(0).Pd(123) != 0 {
		t.Fatal("Always constant wrong")
	}
	if Always(0.3).Pd(0) != 0.3 {
		t.Fatal("Always fractional wrong")
	}
	if Always(-2).Pd(0) != 0 || Always(7).Pd(0) != 1 {
		t.Fatal("Always must clamp to [0,1]")
	}
}

// TestObserved property: wrapping a prober changes nothing about its
// verdicts and reports every (throughput, P_d) pair exactly once.
func TestObserved(t *testing.T) {
	l, err := NewLinear(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	var gotBps, gotPd []float64
	o := Observed{Prober: l, Fn: func(bps, pd float64) {
		gotBps = append(gotBps, bps)
		gotPd = append(gotPd, pd)
	}}
	inputs := []float64{0, 50, 75, 100, 200}
	for _, b := range inputs {
		if got, want := o.Pd(b), l.Pd(b); got != want {
			t.Fatalf("Observed.Pd(%g) = %g, want %g", b, got, want)
		}
	}
	if len(gotBps) != len(inputs) {
		t.Fatalf("callback ran %d times, want %d", len(gotBps), len(inputs))
	}
	for i, b := range inputs {
		if gotBps[i] != b || gotPd[i] != l.Pd(b) {
			t.Fatalf("observation %d = (%g, %g), want (%g, %g)", i, gotBps[i], gotPd[i], b, l.Pd(b))
		}
	}
	// A nil callback is legal and a pure pass-through.
	nilObs := Observed{Prober: l}
	if got := nilObs.Pd(75); got != l.Pd(75) {
		t.Fatalf("nil-callback Pd = %g, want %g", got, l.Pd(75))
	}
}

func TestCombine(t *testing.T) {
	tests := []struct {
		name        string
		tenant, agg float64
		want        float64
	}{
		{"both zero", 0, 0, 0},
		{"agg disabled is exact identity", 0.37, 0, 0.37},
		{"tenant idle is exact aggregate", 0, 0.42, 0.42},
		{"tenant saturated", 1, 0.1, 1},
		{"edge saturated fails closed", 0.1, 1, 1},
		{"negative inputs clamp to the other side", -0.5, 0.3, 0.3},
		{"independent composition", 0.5, 0.5, 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Combine(tt.tenant, tt.agg); got != tt.want {
				t.Fatalf("Combine(%v, %v) = %v, want %v", tt.tenant, tt.agg, got, tt.want)
			}
		})
	}
}

func TestCombineProperties(t *testing.T) {
	for i := 0; i <= 100; i++ {
		for j := 0; j <= 100; j++ {
			a, b := float64(i)/100, float64(j)/100
			p := Combine(a, b)
			if p < 0 || p > 1 {
				t.Fatalf("Combine(%v, %v) = %v out of [0,1]", a, b, p)
			}
			if p != Combine(b, a) {
				t.Fatalf("Combine not symmetric at (%v, %v)", a, b)
			}
			if p+1e-12 < a || p+1e-12 < b {
				t.Fatalf("Combine(%v, %v) = %v below an input: pressure must only add", a, b, p)
			}
		}
	}
}
