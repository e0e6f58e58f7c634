// Package hashes implements the m hash functions shared by all bloom
// filters in a bitmap filter (Section 4.2: "All the bloom filters in the
// bitmap share the same m hash functions, each of which should only output
// an n-bit value. An output that exceeds n bits should be truncated.").
//
// The paper leaves the construction open, and the X4 ablation
// (internal/experiments) shows the choice does not matter for a
// well-mixed family, so the package keeps one: an FNV-1a based
// Kirsch–Mitzenmacher double-hashing family (Family.SumInto), plus the
// one-shot 64-bit key hash (Sum64Words) and its classic and blocked
// index expansions (DerivedInto, BlockedInto). core.Indexer is the one
// caller that turns a socket pair into filter indexes with them.
package hashes

import (
	"fmt"
	"math/bits"
)

// Scheme selects how the m bit indexes of a key are obtained.
type Scheme int

// Index-derivation schemes. The zero value means SchemePerIndex, the
// original construction.
const (
	// SchemePerIndex runs the per-index family (Family.SumInto): the
	// Kirsch–Mitzenmacher expansion of one FNV-1a pass over the key
	// bytes.
	SchemePerIndex Scheme = iota + 1
	// SchemeOneShot hashes the key once into 64 bits (Sum64Words) and
	// derives all m indexes arithmetically from that value — one multiply
	// per packet instead of FNV's byte-serial chain. Its indexes differ
	// from SchemePerIndex's for the same key, so the scheme is part of a
	// filter's geometry and snapshots record it.
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
	// see DESIGN.md §12 for the bound the tests hold it to). Requires
	// SchemeOneShot.
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

// ResolveSchemeLayout normalizes zero values to the defaults
// (SchemePerIndex, LayoutClassic) and validates the combination: the
// blocked layout needs the 64-bit one-shot hash for its block choice,
// so an unset scheme is upgraded to SchemeOneShot and an explicit
// SchemePerIndex is rejected.
func ResolveSchemeLayout(scheme Scheme, layout Layout) (Scheme, Layout, error) {
	if layout == 0 {
		layout = LayoutClassic
	}
	switch layout {
	case LayoutClassic, LayoutBlocked:
	default:
		return 0, 0, fmt.Errorf("hashes: unknown layout %d", int(layout))
	}
	if scheme == 0 {
		scheme = SchemePerIndex
		if layout == LayoutBlocked {
			scheme = SchemeOneShot
		}
	}
	switch scheme {
	case SchemePerIndex, SchemeOneShot:
	default:
		return 0, 0, fmt.Errorf("hashes: unknown scheme %d", int(scheme))
	}
	if layout == LayoutBlocked && scheme == SchemePerIndex {
		return 0, 0, fmt.Errorf("hashes: the blocked layout requires the one-shot scheme (the block choice consumes the high hash bits)")
	}
	return scheme, layout, nil
}

// Family computes m n-bit hash values per key.
type Family struct {
	m     int
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
	return &Family{m: m, mask: mask, nbits: nbits}, nil
}

// M returns the number of hash functions in the family.
func (f *Family) M() int { return f.m }

// SumInto fills dst (length M) with the per-index-scheme indexes of
// key: the classic expansion (DerivedInto) of one 64-bit FNV-1a pass
// finalized with the splitmix64 mixer, whose low and high words are the
// two independent hashes of the Kirsch–Mitzenmacher construction. (Two
// 32-bit FNV passes with different bases are affinely related for
// equal-length keys and collide structurally.) This derivation is
// frozen: snapshots written before the scheme byte existed resolve to
// SchemePerIndex, so their marks must keep hashing identically.
//
//p2p:hotpath
func (f *Family) SumInto(dst []uint32, key []byte) {
	f.DerivedInto(dst, mix64(FNV1a64(key)))
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
// derivations (DerivedInto, BlockedInto) come from this one value.
//
//p2p:hotpath
func Sum64Words(a, b, n uint64) uint64 {
	hi, lo := bits.Mul64(a^0x9e3779b97f4a7c15, b^0xe7037ed1a0b428db)
	return mix64(hi ^ lo ^ n*0x9ddfea08eb382d69)
}

// DerivedInto fills dst (length M) with the classic-layout indexes
// derived from the one-shot hash h: the Kirsch–Mitzenmacher expansion
// h1 + i·h2 over the low and high words, truncated to n bits.
//
//p2p:hotpath
func (f *Family) DerivedInto(dst []uint32, h uint64) {
	h1 := uint32(h)
	h2 := uint32(h>>32) | 1 // odd so strides cover the table
	for i := range dst {
		dst[i] = (h1 + uint32(i)*h2) & f.mask
	}
}

// BlockedInto fills dst (length M) with the blocked-layout indexes
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

// FNV1a64 is the 64-bit Fowler–Noll–Vo 1a hash.
//
//p2p:hotpath
func FNV1a64(key []byte) uint64 {
	const (
		basis = 0xcbf29ce484222325
		prime = 0x100000001b3
	)
	h := uint64(basis)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
