package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"p2pbound/internal/bloom"
	"p2pbound/internal/stats"
)

// A1Result reproduces the Section 5.1 analysis: the capacity bounds of the
// worked example ("if we adopt a bitmap filter of size N=2^20 with k=4 and
// Δt=5 s, the number of active connections inside a time unit T_e=20 s
// should be less than 167K, 125K and 83K for p≈10%, 5% and 1%"), plus a
// Monte-Carlo cross-check of the penetration probability formula.
type A1Result struct {
	NBits      uint
	K          int
	DeltaTSec  int
	Rows       []A1Row
	MemoryKB   int
	MonteCarlo []A1MonteCarlo
}

// A1Row is one desired-penetration row of the worked example.
type A1Row struct {
	P          float64 // desired penetration probability
	Capacity   int     // Equation 6 bound on c
	PaperBound int     // the value the paper states (thousands rounded)
	OptimalM   float64 // Equation 5 at the capacity bound
}

// A1MonteCarlo cross-checks Equation 3 against a real bloom filter filled
// with c random connection keys.
type A1MonteCarlo struct {
	C          int
	M          int
	Analytical float64 // Equation 3
	Measured   float64 // observed false-positive rate
}

// RunA1 evaluates the closed forms and the Monte-Carlo check.
func RunA1(seed uint64) (*A1Result, error) {
	const (
		nbits = 20
		k     = 4
		dt    = 5
	)
	res := &A1Result{
		NBits:     nbits,
		K:         k,
		DeltaTSec: dt,
		MemoryKB:  k * (1 << nbits) / 8 / 1024,
	}
	for _, row := range []struct {
		p     float64
		paper int
	}{
		{0.10, 167_000},
		{0.05, 125_000},
		{0.01, 83_000},
	} {
		c := bloom.CapacityBound(row.p, nbits)
		res.Rows = append(res.Rows, A1Row{
			P:          row.p,
			Capacity:   c,
			PaperBound: row.paper,
			OptimalM:   bloom.OptimalM(c, nbits),
		})
	}

	// Monte-Carlo: fill a 2^20-bit filter with c random 13-byte keys and
	// measure how often a fresh random key penetrates.
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	key := make([]byte, 13)
	draw := func() []byte {
		for i := range key {
			key[i] = byte(rng.IntN(256))
		}
		return key
	}
	for _, mc := range []struct{ c, m int }{
		{15_000, 3}, // the trace's average active connections, paper setup
		{83_000, 3},
		{125_000, 3},
	} {
		f, err := bloom.New(mc.m, nbits)
		if err != nil {
			return nil, err
		}
		for i := 0; i < mc.c; i++ {
			f.Add(draw())
		}
		const probes = 200_000
		hits := 0
		for i := 0; i < probes; i++ {
			if f.Test(draw()) {
				hits++
			}
		}
		res.MonteCarlo = append(res.MonteCarlo, A1MonteCarlo{
			C:          mc.c,
			M:          mc.m,
			Analytical: bloom.Penetration(mc.c, mc.m, nbits),
			Measured:   float64(hits) / float64(probes),
		})
	}
	return res, nil
}

// Render prints the analysis table.
func (r *A1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A1: capacity bounds for N=2^%d, k=%d, Δt=%d s (T_e=%d s), %d KB bitmap\n",
		r.NBits, r.K, r.DeltaTSec, r.K*r.DeltaTSec, r.MemoryKB)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			stats.Pct(row.P),
			fmt.Sprintf("%d", row.Capacity),
			fmt.Sprintf("%d", row.PaperBound),
			fmt.Sprintf("%.2f", row.OptimalM),
		})
	}
	b.WriteString(stats.Table([]string{"p", "max conns (Eq 6)", "paper", "optimal m (Eq 5)"}, rows))
	b.WriteString("\nA1: Monte-Carlo penetration cross-check (Equation 3 vs measured)\n")
	rows = rows[:0]
	for _, mc := range r.MonteCarlo {
		rows = append(rows, []string{
			fmt.Sprintf("%d", mc.C),
			fmt.Sprintf("%d", mc.M),
			fmt.Sprintf("%.5f", mc.Analytical),
			fmt.Sprintf("%.5f", mc.Measured),
		})
	}
	b.WriteString(stats.Table([]string{"c", "m", "p (Eq 3)", "p measured"}, rows))
	return b.String()
}
