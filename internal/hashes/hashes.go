// Package hashes implements the m hash functions shared by all bloom
// filters in a bitmap filter (Section 4.2: "All the bloom filters in the
// bitmap share the same m hash functions, each of which should only output
// an n-bit value. An output that exceeds n bits should be truncated.").
//
// The paper leaves the construction open, and the X4 ablation
// (internal/experiments) shows the choice does not matter for a
// well-mixed family, so the package keeps one per layout: an FNV-1a
// based Kirsch–Mitzenmacher double-hashing family (Family.SumWordsInto)
// for the paper's classic layout, and the one-shot 64-bit key hash
// (Sum64Words) with its cache-line expansion (BlockedInto) for the
// blocked layout. Both read a key as its two overlapping little-endian
// words; Family.SumInto runs the classic family over key bytes, for
// internal/bloom. core.Indexer is the one caller that turns a socket
// pair into filter indexes with them.
package hashes

import (
	"fmt"
	"math/bits"
)

// Scheme selects how the m bit indexes of a key are obtained. The
// layout selects it (ResolveSchemeLayout): each layout has exactly one
// scheme.
type Scheme int

// Index-derivation schemes.
const (
	// SchemePerIndex runs the per-index family (Family.SumWordsInto):
	// the Kirsch–Mitzenmacher expansion of one FNV-1a pass over the key
	// bytes. It is the classic layout's scheme.
	SchemePerIndex Scheme = iota + 1
	// SchemeOneShot hashes the key once into 64 bits (Sum64Words) and
	// derives all m indexes arithmetically from that value — one multiply
	// per packet instead of FNV's byte-serial chain. It is the blocked
	// layout's scheme: the high hash bits choose the block.
	SchemeOneShot
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemePerIndex:
		return "per-index"
	case SchemeOneShot:
		return "one-shot"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Layout selects where a key's m bits land in the bit vector.
type Layout int

// Bit layouts. The zero value means LayoutClassic.
const (
	// LayoutClassic scatters the m indexes uniformly across the whole
	// n-bit vector — the paper's layout, and the textbook Bloom filter.
	LayoutClassic Layout = iota + 1
	// LayoutBlocked confines a key's m bits to a single 512-bit
	// (one-cache-line) block chosen by the high bits of the one-shot
	// hash, so testing or setting a key costs at most one memory stall
	// per bit vector instead of m. The block concentration raises the
	// false positive rate by the block-occupancy variance (Putze et al.;
	// see DESIGN.md §12 for the bound the tests hold it to). Derives
	// with SchemeOneShot.
	LayoutBlocked
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutClassic:
		return "classic"
	case LayoutBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// LineBits is the blocked-layout block size in bits: 512 bits = 64
// bytes, one cache line on every mainstream CPU. A vector smaller than
// LineBits degenerates to a single block covering the whole vector.
const LineBits = 512

// ResolveSchemeLayout returns the scheme the layout selects — the
// per-index family for the classic layout, the one-shot hash for the
// blocked layout, whose block choice consumes the high hash bits — and
// the layout, with a zero layout read as LayoutClassic. A zero scheme
// means the layout's own; any other scheme is rejected.
func ResolveSchemeLayout(scheme Scheme, layout Layout) (Scheme, Layout, error) {
	var want Scheme
	switch layout {
	case 0, LayoutClassic:
		layout, want = LayoutClassic, SchemePerIndex
	case LayoutBlocked:
		want = SchemeOneShot
	default:
		return 0, 0, fmt.Errorf("hashes: unknown layout %d", int(layout))
	}
	switch scheme {
	case 0, want:
		return want, layout, nil
	case SchemePerIndex, SchemeOneShot:
		return 0, 0, fmt.Errorf("hashes: the %v layout derives with the %v scheme, not %v", layout, want, scheme)
	default:
		return 0, 0, fmt.Errorf("hashes: unknown scheme %d", int(scheme))
	}
}

// Family computes m n-bit hash values per key.
type Family struct {
	mask  uint32
	nbits uint
}

// NewFamily builds a family of m hash functions truncated to nbits-bit
// outputs. nbits must be in [1, 32]; m must be positive.
func NewFamily(m int, nbits uint) (*Family, error) {
	if m <= 0 {
		return nil, fmt.Errorf("hashes: m must be positive, got %d", m)
	}
	if nbits == 0 || nbits > 32 {
		return nil, fmt.Errorf("hashes: nbits must be in [1,32], got %d", nbits)
	}
	var mask uint32 = ^uint32(0)
	if nbits < 32 {
		mask = 1<<nbits - 1
	}
	return &Family{mask: mask, nbits: nbits}, nil
}

// SumInto fills dst (length m) with the per-index-scheme indexes of
// key: the classic expansion (derivedInto) of one 64-bit FNV-1a pass
// finalized with the splitmix64 mixer, whose low and high words are the
// two independent hashes of the Kirsch–Mitzenmacher construction. (Two
// 32-bit FNV passes with different bases are affinely related for
// equal-length keys and collide structurally.) This derivation is
// frozen: snapshots written before the scheme byte existed resolve to
// SchemePerIndex, so their marks must keep hashing identically.
//
//p2p:hotpath
func (f *Family) SumInto(dst []uint32, key []byte) {
	f.derivedInto(dst, mix64(FNV1a64(key)))
}

// SumWordsInto is SumInto over a key of n bytes given as the two
// overlapping words Sum64Words takes (FNV1a64Words): the same indexes,
// from a key that was never written to memory.
//
//p2p:hotpath
func (f *Family) SumWordsInto(dst []uint32, a, b, n uint64) {
	f.derivedInto(dst, mix64(FNV1a64Words(a, b, n)))
}

// Sum64Words is the one-shot 64-bit key hash, over a key of n bytes in
// [8,16] given as its two overlapping little-endian words: a is bytes
// [0,8), b is bytes [n-8,n). The words are folded through one 64×64→128
// multiply and the splitmix64 finalizer, so every output bit
// avalanches. Every key byte reaches at least one word, so distinct
// keys of equal length map to distinct (a, b) pairs. Callers produce
// the words from in-register fields (packet.SocketPair.KeyWords), never
// from an encoded key buffer, whose byte stores and overlapping loads
// defeat store-to-load forwarding. All m indexes of the SchemeOneShot
// derivation (BlockedInto) come from this one value.
//
//p2p:hotpath
func Sum64Words(a, b, n uint64) uint64 {
	hi, lo := bits.Mul64(a^0x9e3779b97f4a7c15, b^0xe7037ed1a0b428db)
	return mix64(hi ^ lo ^ n*0x9ddfea08eb382d69)
}

// derivedInto fills dst (length m) with the classic-layout indexes
// derived from the 64-bit hash h: the Kirsch–Mitzenmacher expansion
// h1 + i·h2 over the low and high words, truncated to n bits.
//
//p2p:hotpath
func (f *Family) derivedInto(dst []uint32, h uint64) {
	h1 := uint32(h)
	h2 := uint32(h>>32) | 1 // odd so strides cover the table
	for i := range dst {
		dst[i] = (h1 + uint32(i)*h2) & f.mask
	}
}

// BlockedInto fills dst (length m) with the blocked-layout indexes
// derived from the one-shot hash h. The 512-bit block is chosen by
// multiply-shift range reduction on the high word of h; the in-block
// offsets double-hash a remixed copy of h, so the offset stream is
// decorrelated from the block choice. All m indexes fall in
// [block·512, block·512+512), i.e. one cache line of the bit vector.
// Vectors smaller than 512 bits use the whole vector as the single
// block.
//
//p2p:hotpath
func (f *Family) BlockedInto(dst []uint32, h uint64) {
	lineBits := uint32(LineBits)
	if n := uint64(1) << f.nbits; n < LineBits {
		lineBits = uint32(n)
	}
	lines := uint32((uint64(1) << f.nbits) / uint64(lineBits))
	base := uint32((uint64(uint32(h>>32))*uint64(lines))>>32) * lineBits
	g := mix64(h ^ 0x9e3779b97f4a7c15)
	g1 := uint32(g)
	g2 := uint32(g>>32) | 1
	off := lineBits - 1
	for i := range dst {
		dst[i] = base + ((g1 + uint32(i)*g2) & off)
	}
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection over
// uint64.
//
//p2p:hotpath
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvBasis = 0xcbf29ce484222325
	fnvPrime = 0x100000001b3
)

// FNV1a64 is the 64-bit Fowler–Noll–Vo 1a hash.
//
//p2p:hotpath
func FNV1a64(key []byte) uint64 {
	h := uint64(fnvBasis)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// FNV1a64Words is FNV1a64 over a key of n bytes in [8,16] given as its
// two overlapping little-endian words, as Sum64Words takes them: key
// bytes 0–7 are a's, lowest first, and bytes 8 to n−1 are the top n−8
// bytes of b (b>>24 upward for the 13-byte key, b>>40 for the 11-byte
// hole-punch key). The bytes come out of the words by shifts, so the
// pass reads no buffer.
//
//p2p:hotpath
func FNV1a64Words(a, b, n uint64) uint64 {
	h := uint64(fnvBasis)
	h = (h ^ a&0xff) * fnvPrime
	h = (h ^ a>>8&0xff) * fnvPrime
	h = (h ^ a>>16&0xff) * fnvPrime
	h = (h ^ a>>24&0xff) * fnvPrime
	h = (h ^ a>>32&0xff) * fnvPrime
	h = (h ^ a>>40&0xff) * fnvPrime
	h = (h ^ a>>48&0xff) * fnvPrime
	h = (h ^ a>>56) * fnvPrime
	for t := b >> (128 - 8*n); n > 8; n-- {
		h = (h ^ t&0xff) * fnvPrime
		t >>= 8
	}
	return h
}
