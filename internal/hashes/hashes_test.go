package hashes

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewFamilyValidation(t *testing.T) {
	tests := []struct {
		name  string
		m     int
		nbits uint
		ok    bool
	}{
		{"valid fnv", 3, 20, true},
		{"valid 32 bits", 8, 32, true},
		{"zero m", 0, 20, false},
		{"negative m", -1, 20, false},
		{"zero nbits", 3, 0, false},
		{"oversized nbits", 3, 33, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewFamily(tt.m, tt.nbits)
			if (err == nil) != tt.ok {
				t.Fatalf("NewFamily(%d, %d) error = %v, want ok=%v", tt.m, tt.nbits, err, tt.ok)
			}
		})
	}
}

// sum returns the m per-index indexes of key.
func sum(f *Family, key []byte) []uint32 {
	dst := make([]uint32, f.M())
	f.SumInto(dst, key)
	return dst
}

func TestSumCountAndRange(t *testing.T) {
	f, err := NewFamily(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range sum(f, []byte("hello world")) {
		if h >= 1<<10 {
			t.Fatalf("hash %d exceeds 10-bit range", h)
		}
	}
}

func TestSumDeterministic(t *testing.T) {
	f, err := NewFamily(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{0x13, 'B', 'i', 't', 0xe3, 0x00, 0xff}
	a := sum(f, key)
	b := sum(f, key)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sums differ at %d", i)
		}
	}
}

// TestSumSpread property: for a family with 32-bit output, two different
// keys rarely produce identical full hash vectors.
func TestSumSpread(t *testing.T) {
	f, err := NewFamily(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	collisions := 0
	trials := 0
	check := func(a, b []byte) bool {
		if string(a) == string(b) {
			return true
		}
		trials++
		ha := sum(f, a)
		hb := sum(f, b)
		same := true
		for i := range ha {
			if ha[i] != hb[i] {
				same = false
				break
			}
		}
		if same {
			collisions++
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if collisions > 0 {
		t.Errorf("%d full-vector collisions in %d trials", collisions, trials)
	}
}

// TestUniformity fills a table with the hashes of sequential keys and
// checks the bucket loads stay near uniform (chi-squared style bound).
func TestUniformity(t *testing.T) {
	const (
		nbits   = 8
		buckets = 1 << nbits
		keys    = 100_000
	)
	f, err := NewFamily(1, nbits)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, buckets)
	key := make([]byte, 13)
	for i := 0; i < keys; i++ {
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		key[2] = byte(i >> 16)
		key[7] = byte(i * 7)
		for _, h := range sum(f, key) {
			counts[h]++
		}
	}
	mean := float64(keys) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - mean
		chi2 += d * d / mean
	}
	// For 255 degrees of freedom the 99.9th percentile is ≈330; give
	// slack for structured keys.
	if chi2 > 400 {
		t.Errorf("chi-squared = %.1f, want < 400 (non-uniform)", chi2)
	}
}

// TestFNVDoubleMatchesDefinition verifies the Kirsch–Mitzenmacher
// construction: hash_i = h1 + i·h2 truncated, with h1 and h2 drawn from
// the finalized 64-bit FNV-1a digest.
func TestFNVDoubleMatchesDefinition(t *testing.T) {
	f, err := NewFamily(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("abcdef")
	h := FNV1a64(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	h1 := uint32(h)
	h2 := uint32(h>>32) | 1
	for i, got := range sum(f, key) {
		want := (h1 + uint32(i)*h2) & 0xffff
		if got != want {
			t.Fatalf("sum[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestFNV1a64KnownVector(t *testing.T) {
	// fnv1a64("") = offset basis; fnv1a64("a") = 0xaf63dc4c8601ec8c.
	if got := FNV1a64(nil); got != 0xcbf29ce484222325 {
		t.Fatalf("FNV1a64(\"\") = %#x", got)
	}
	if got := FNV1a64([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("FNV1a64(\"a\") = %#x, want 0xaf63dc4c8601ec8c", got)
	}
}

// TestAvalanche property (loose): flipping one bit of either key word
// flips about half of the one-shot hash's 64 output bits on average.
func TestAvalanche(t *testing.T) {
	a, b := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	orig := Sum64Words(a, b, 13)
	flips := 0
	for i := 0; i < 64; i++ {
		flips += bits.OnesCount64(orig ^ Sum64Words(a^1<<i, b, 13))
		flips += bits.OnesCount64(orig ^ Sum64Words(a, b^1<<i, 13))
	}
	avg := float64(flips) / 128
	if math.Abs(avg-32) > 4 {
		t.Fatalf("average flipped output bits = %.2f, want ≈32", avg)
	}
}
