package throughput

import (
	"math"
	"testing"
	"time"
)

func TestNewMeterValidation(t *testing.T) {
	if _, err := NewMeter(0, 5); err == nil {
		t.Fatal("zero bucket width accepted")
	}
	if _, err := NewMeter(time.Second, 0); err == nil {
		t.Fatal("zero bucket count accepted")
	}
}

func TestRateSteadyTraffic(t *testing.T) {
	m, err := NewMeter(time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB per second for 10 seconds → 8 Mbit/s.
	for s := 0; s < 10; s++ {
		m.Add(time.Duration(s)*time.Second, 1_000_000)
	}
	got := m.Rate(9 * time.Second)
	if math.Abs(got-8e6) > 1e-6 {
		t.Fatalf("steady rate = %g, want 8e6", got)
	}
	if m.TotalBytes() != 10_000_000 {
		t.Fatalf("total bytes = %d", m.TotalBytes())
	}
}

func TestRateDecaysWhenIdle(t *testing.T) {
	m, err := NewMeter(time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 5_000_000)
	if m.Rate(0) == 0 {
		t.Fatal("rate zero right after add")
	}
	// After the window passes with no traffic the rate must be zero.
	if got := m.Rate(10 * time.Second); got != 0 {
		t.Fatalf("rate after idle window = %g, want 0", got)
	}
}

func TestRatePartialWindow(t *testing.T) {
	m, err := NewMeter(time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 1000)
	m.Add(time.Second, 1000)
	// Two KB over a 4-second window.
	want := float64(2000*8) / 4
	if got := m.Rate(time.Second); math.Abs(got-want) > 1e-9 {
		t.Fatalf("partial-window rate = %g, want %g", got, want)
	}
}

func TestLongGapSkipsAhead(t *testing.T) {
	m, err := NewMeter(time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 999)
	// A gap far larger than the window must not loop bucket by bucket
	// and must fully clear old traffic.
	m.Add(1000*time.Hour, 100)
	want := float64(100*8) / 3
	if got := m.Rate(1000 * time.Hour); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate after long gap = %g, want %g", got, want)
	}
}

func TestWindow(t *testing.T) {
	m, err := NewMeter(500*time.Millisecond, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Window(); got != 3*time.Second {
		t.Fatalf("window = %v", got)
	}
}

func TestBurstThenQuietMatchesWindowAverage(t *testing.T) {
	m, err := NewMeter(time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(10*time.Second, 5_000_000)
	// Two seconds later, the burst still counts over the 5 s window.
	want := float64(5_000_000*8) / 5
	if got := m.Rate(12 * time.Second); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate 2s after burst = %g, want %g", got, want)
	}
	// Six seconds later it has rolled out.
	if got := m.Rate(16 * time.Second); got != 0 {
		t.Fatalf("rate 6s after burst = %g, want 0", got)
	}
}
