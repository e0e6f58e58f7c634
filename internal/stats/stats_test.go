package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Fatal("empty CDF At != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) || !math.IsNaN(c.Max()) {
		t.Fatal("empty CDF must yield NaN summaries")
	}
	if c.Points(5) != nil {
		t.Fatal("empty CDF Points != nil")
	}
}

func TestCDFBasics(t *testing.T) {
	var c CDF
	for _, x := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Add(x)
	}
	if got := c.N(); got != 10 {
		t.Fatalf("N = %d", got)
	}
	if got := c.At(5); got != 0.5 {
		t.Fatalf("At(5) = %g", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %g", got)
	}
	if got := c.At(100); got != 1 {
		t.Fatalf("At(100) = %g", got)
	}
	if got := c.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %g", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %g", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %g", got)
	}
	if got := c.Mean(); got != 5.5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := c.Max(); got != 10 {
		t.Fatalf("Max = %g", got)
	}
}

func TestCDFAddDuration(t *testing.T) {
	var c CDF
	c.AddDuration(1500 * time.Millisecond)
	if got := c.Quantile(1); got != 1.5 {
		t.Fatalf("duration sample = %g", got)
	}
}

// TestCDFMonotonic property: At is monotone non-decreasing and Quantile is
// consistent with At.
func TestCDFMonotonic(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		if len(samples) == 0 {
			return true
		}
		var c CDF
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			c.Add(s)
		}
		if c.N() == 0 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		if c.At(a) > c.At(b) {
			return false
		}
		q := c.Quantile(0.5)
		return c.At(q) >= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPoints(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Y < pts[j].Y }) {
		t.Fatal("points not monotone in Y")
	}
	if last := pts[len(pts)-1]; last.X != 100 || last.Y != 1 {
		t.Fatalf("last point = %+v", last)
	}
}

func TestTimeSeries(t *testing.T) {
	if _, err := NewTimeSeries(0); err == nil {
		t.Fatal("zero bucket accepted")
	}
	ts, err := NewTimeSeries(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(0, 125_000)              // 1 Mbit in second 0
	ts.Add(500*time.Millisecond, 0) // same bucket
	ts.Add(2*time.Second, 250_000)  // 2 Mbit in second 2
	rates := ts.Rates()
	if len(rates) != 3 {
		t.Fatalf("buckets = %d", len(rates))
	}
	if rates[0] != 1e6 || rates[1] != 0 || rates[2] != 2e6 {
		t.Fatalf("rates = %v", rates)
	}
	if got := ts.TotalBytes(); got != 375_000 {
		t.Fatalf("total = %d", got)
	}
	if got := ts.MeanRate(); got != 1e6 {
		t.Fatalf("mean rate = %g", got)
	}
	if got := ts.MaxRate(); got != 2e6 {
		t.Fatalf("max rate = %g", got)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts, err := NewTimeSeries(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ts.MeanRate() != 0 || ts.MaxRate() != 0 || ts.TotalBytes() != 0 {
		t.Fatal("empty series must report zeros")
	}
}

func TestFormatters(t *testing.T) {
	if got := Mbps(146.7e6); got != "146.70 Mbps" {
		t.Fatalf("Mbps = %q", got)
	}
	if got := Pct(0.0151); got != "1.51%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"Name", "Value"}, [][]string{
		{"alpha", "1"},
		{"beta-long", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") || !strings.Contains(lines[0], "Value") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	// Columns align: "Value" starts at the same offset in every row.
	col := strings.Index(lines[0], "Value")
	if lines[2][col:col+1] != "1" && lines[3][col:col+2] != "22" {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}
