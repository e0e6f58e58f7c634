// Package bloom implements the classic Bloom filter (Bloom, 1970 — the
// paper's reference [9]) that the bitmap filter composes k instances of.
//
// Beyond Add/Test it exposes the analytical machinery of Section 5.1:
// the low-utilization approximation p ≈ (c·m/N)^m (Equation 3) of the
// penetration probability p = U^m (Equation 2), the optimal hash count
// m = e⁻¹·N/c of Equation 5, and the capacity bound c/N ≤ −1/(e·ln p) of
// Equation 6.
package bloom

import (
	"fmt"
	"math"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/hashes"
)

// Filter is a standard Bloom filter over byte keys.
type Filter struct {
	vec    *bitvec.Vector
	family *hashes.Family
	sums   []uint32
}

// New builds a Bloom filter with 2^nbits bits and m hash functions of
// the library's one construction (hashes.Family.SumInto), in the
// classic scattered layout.
func New(m int, nbits uint) (*Filter, error) {
	family, err := hashes.NewFamily(m, nbits)
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	return &Filter{
		vec:    bitvec.New(1 << nbits),
		family: family,
		sums:   make([]uint32, m),
	}, nil
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	f.family.SumInto(f.sums, key)
	for _, h := range f.sums {
		f.vec.Set(h)
	}
}

// Test reports whether key may have been added. False positives are
// possible; false negatives are not.
func (f *Filter) Test(key []byte) bool {
	f.family.SumInto(f.sums, key)
	for _, h := range f.sums {
		if !f.vec.Get(h) {
			return false
		}
	}
	return true
}

// Penetration returns the Equation 3 approximation p ≈ (c·m/N)^m for c
// active connections, m hash functions, and an N-bit vector. It assumes
// hash collisions are rare, i.e. low utilization.
func Penetration(c, m int, n uint) float64 {
	return math.Pow(float64(c)*float64(m)/float64(int(1)<<n), float64(m))
}

// OptimalM returns the real-valued hash count m = e⁻¹·N/c minimizing the
// penetration probability (Equation 5) for c connections in an N-bit
// vector.
func OptimalM(c int, nbits uint) float64 {
	return float64(int(1)<<nbits) / (math.E * float64(c))
}

// CapacityBound returns the maximum number of active connections c
// satisfying c/N ≤ −1/(e·ln p) (Equation 6) so that the optimally-tuned
// filter keeps the penetration probability at or below p.
func CapacityBound(p float64, nbits uint) int {
	if p <= 0 || p >= 1 {
		return 0
	}
	return int(-float64(int(1)<<nbits) / (math.E * math.Log(p)))
}
