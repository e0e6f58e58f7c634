// Package stats provides the small statistical toolkit shared by the
// experiments: empirical CDFs and quantiles (for the port, lifetime and
// delay distributions of Figures 2–5) and time-bucketed throughput
// series (for the Figure 9 plots).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (c *CDF) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

// At returns the fraction of samples ≤ x (0 when empty).
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	// First index with sample > x.
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-quantile (q in [0,1]) by the nearest-rank method.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.samples[rank]
}

// Mean returns the sample mean (NaN when empty).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range c.samples {
		sum += x
	}
	return sum / float64(len(c.samples))
}

// Max returns the largest sample (NaN when empty).
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Points returns up to n evenly spaced (x, F(x)) points suitable for
// plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sort()
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		rank := (i + 1) * len(c.samples) / n
		if rank == 0 {
			rank = 1
		}
		pts = append(pts, Point{
			X: c.samples[rank-1],
			Y: float64(rank) / float64(len(c.samples)),
		})
	}
	return pts
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Point is an (x, y) pair of a plotted series.
type Point struct {
	X, Y float64
}

// TimeSeries accumulates per-bucket byte counts over simulated time and
// reports them as a bits-per-second series — the black/gray curves of
// Figure 9.
type TimeSeries struct {
	bucket  time.Duration
	buckets []int64
}

// NewTimeSeries builds a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) (*TimeSeries, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("stats: bucket width must be positive, got %v", bucket)
	}
	return &TimeSeries{bucket: bucket}, nil
}

// Add accounts n bytes at simulated time ts.
func (t *TimeSeries) Add(ts time.Duration, n int) {
	i := int(ts / t.bucket)
	if i < 0 {
		i = 0
	}
	for len(t.buckets) <= i {
		t.buckets = append(t.buckets, 0)
	}
	t.buckets[i] += int64(n)
}

// Rates returns the per-bucket throughput in bits per second.
func (t *TimeSeries) Rates() []float64 {
	out := make([]float64, len(t.buckets))
	secs := t.bucket.Seconds()
	for i, b := range t.buckets {
		out[i] = float64(b*8) / secs
	}
	return out
}

// TotalBytes returns the sum over all buckets.
func (t *TimeSeries) TotalBytes() int64 {
	var sum int64
	for _, b := range t.buckets {
		sum += b
	}
	return sum
}

// MeanRate returns the average throughput in bits per second across the
// series (0 when empty).
func (t *TimeSeries) MeanRate() float64 {
	if len(t.buckets) == 0 {
		return 0
	}
	span := t.bucket.Seconds() * float64(len(t.buckets))
	return float64(t.TotalBytes()*8) / span
}

// MaxRate returns the peak bucket throughput in bits per second.
func (t *TimeSeries) MaxRate() float64 {
	max := 0.0
	for _, r := range t.Rates() {
		if r > max {
			max = r
		}
	}
	return max
}

// Mbps formats a bits-per-second value as megabits per second.
func Mbps(bps float64) string {
	return fmt.Sprintf("%.2f Mbps", bps/1e6)
}

// Pct formats a fraction as a percentage.
func Pct(f float64) string {
	return fmt.Sprintf("%.2f%%", f*100)
}

// Table renders rows of cells as an aligned text table with a header.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
