// Package bloom implements the classic Bloom filter (Bloom, 1970 — the
// paper's reference [9]) that the bitmap filter composes k instances of.
//
// Beyond Add/Test it exposes the analytical machinery of Section 5.1:
// the penetration probability p = U^m of Equation 2, its low-utilization
// approximation p ≈ (c·m/N)^m of Equation 3, the optimal hash count
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
	adds   int
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
	f.adds++
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

// Clear resets the filter to empty.
func (f *Filter) Clear() {
	f.vec.Clear()
	f.adds = 0
}

// Adds returns the number of Add calls since the last Clear.
func (f *Filter) Adds() int { return f.adds }

// Bits returns the size N of the bit vector.
func (f *Filter) Bits() uint { return f.vec.Len() }

// Bytes returns the memory footprint of the bit vector.
func (f *Filter) Bytes() int { return f.vec.Bytes() }

// M returns the number of hash functions.
func (f *Filter) M() int { return f.family.M() }

// Utilization returns the marked-bit fraction U = b/N.
func (f *Filter) Utilization() float64 { return f.vec.Utilization() }

// PenetrationProbability returns p = U^m (Equation 2): the probability a
// random key not in the filter tests positive, given the current
// utilization.
func (f *Filter) PenetrationProbability() float64 {
	return math.Pow(f.Utilization(), float64(f.M()))
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
