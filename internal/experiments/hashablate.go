package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
)

// X4Row is one hash construction's measurement.
type X4Row struct {
	Family string
	NBits  uint
	Div    Divergence
}

// X4Result compares three hash-function families at a deliberately
// small bit-vector size where hash quality is visible in the
// false-positive rate. The paper leaves the hash construction open ("all
// the bloom filters in the bitmap share the same m hash functions"); this
// ablation shows the choice does not matter for a well-mixed family.
type X4Result struct {
	Rows []X4Row
}

// x4Families are the constructions X4 compares. The library keeps only
// the first, FNV-double, which core.Indexer derives every filter's
// indexes with. The other two exist only here: each is a per-index
// family of m full-key hashes, the i-th seeded with i·step+1, truncated
// to n bits.
var x4Families = []struct {
	name string
	hash func(seed uint32, key []byte) uint32 // nil: the filter's own derivation
	step uint32
}{
	{"fnv-double", nil, 0},
	{"jenkins", Lookup3, 0x9e3779b9},
	{"mix", MixHash, 0x85ebca6b},
}

// RunX4 measures divergence from exact state per hash family.
func RunX4(packets []packet.Packet, seed uint64) (*X4Result, error) {
	res := &X4Result{}
	for _, nbits := range []uint{12, 16} {
		for _, fam := range x4Families {
			cfg := core.Config{K: 4, NBits: nbits, M: 3, DeltaT: 5 * time.Second, Seed: seed}
			var derive func(dst []uint32, key []byte)
			if fam.hash != nil {
				mask := uint32(1)<<nbits - 1
				derive = func(dst []uint32, key []byte) {
					for i := range dst {
						dst[i] = fam.hash(uint32(i)*fam.step+1, key) & mask
					}
				}
			}
			div, err := diverge(packets, cfg, derive)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, X4Row{Family: fam.name, NBits: nbits, Div: div})
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r *X4Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Family,
			fmt.Sprintf("2^%d", row.NBits),
			stats.Pct(row.Div.FPRateStateless()),
			stats.Pct(row.Div.FNRate()),
			fmt.Sprintf("%.4f", row.Div.Utilization),
		})
	}
	var b strings.Builder
	b.WriteString("X4: hash-family comparison at collision-prone vector sizes\n")
	b.WriteString(stats.Table([]string{"family", "N", "FP/stateless", "FN rate", "util"}, rows))
	return b.String()
}

// MixHash hashes key with a Murmur3-style body and avalanche finalizer.
func MixHash(seed uint32, key []byte) uint32 {
	const (
		c1 = 0xcc9e2d51
		c2 = 0x1b873593
	)
	h := seed
	n := len(key)
	for len(key) >= 4 {
		k := binary.LittleEndian.Uint32(key)
		key = key[4:]
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
		h = h<<13 | h>>19
		h = h*5 + 0xe6546b64
	}
	var k uint32
	switch len(key) {
	case 3:
		k ^= uint32(key[2]) << 16
		fallthrough
	case 2:
		k ^= uint32(key[1]) << 8
		fallthrough
	case 1:
		k ^= uint32(key[0])
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
	}
	h ^= uint32(n)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Lookup3 is Bob Jenkins' lookup3 hashlittle function over key with the
// given seed.
func Lookup3(seed uint32, key []byte) uint32 {
	a := uint32(0xdeadbeef) + uint32(len(key)) + seed
	b, c := a, a
	for len(key) > 12 {
		a += binary.LittleEndian.Uint32(key[0:4])
		b += binary.LittleEndian.Uint32(key[4:8])
		c += binary.LittleEndian.Uint32(key[8:12])
		// mix
		a -= c
		a ^= c<<4 | c>>28
		c += b
		b -= a
		b ^= a<<6 | a>>26
		a += c
		c -= b
		c ^= b<<8 | b>>24
		b += a
		a -= c
		a ^= c<<16 | c>>16
		c += b
		b -= a
		b ^= a<<19 | a>>13
		a += c
		c -= b
		c ^= b<<4 | b>>28
		b += a
		key = key[12:]
	}
	if len(key) == 0 {
		return c
	}
	var tail [12]byte
	copy(tail[:], key)
	a += binary.LittleEndian.Uint32(tail[0:4])
	b += binary.LittleEndian.Uint32(tail[4:8])
	c += binary.LittleEndian.Uint32(tail[8:12])
	// final
	c ^= b
	c -= b<<14 | b>>18
	a ^= c
	a -= c<<11 | c>>21
	b ^= a
	b -= a<<25 | a>>7
	c ^= b
	c -= b<<16 | b>>16
	a ^= c
	a -= c<<4 | c>>28
	b ^= a
	b -= a<<14 | a>>18
	c ^= b
	c -= b<<24 | b>>8
	return c
}
