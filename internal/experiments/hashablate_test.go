package experiments

import (
	"math"
	"math/bits"
	"testing"
)

func TestLookup3AndMixHandleAllLengths(t *testing.T) {
	// Exercise every tail-length branch.
	for n := 0; n <= 40; n++ {
		key := make([]byte, n)
		for i := range key {
			key[i] = byte(i * 31)
		}
		_ = Lookup3(1, key)
		_ = MixHash(1, key)
	}
}

func TestSeedChangesHash(t *testing.T) {
	key := []byte("some key")
	if Lookup3(1, key) == Lookup3(2, key) {
		t.Error("Lookup3 ignores seed")
	}
	if MixHash(1, key) == MixHash(2, key) {
		t.Error("MixHash ignores seed")
	}
}

// TestMixHashAvalanche property (loose): flipping one input bit flips a
// substantial number of output bits on average.
func TestMixHashAvalanche(t *testing.T) {
	key := make([]byte, 13)
	flips := 0
	trials := 0
	for i := 0; i < len(key)*8; i++ {
		orig := MixHash(7, key)
		key[i/8] ^= 1 << (i % 8)
		flipped := MixHash(7, key)
		key[i/8] ^= 1 << (i % 8)
		flips += bits.OnesCount32(orig ^ flipped)
		trials++
	}
	avg := float64(flips) / float64(trials)
	if math.Abs(avg-16) > 5 {
		t.Fatalf("average flipped output bits = %.2f, want ≈16", avg)
	}
}
