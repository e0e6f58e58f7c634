// Package bitvec provides the fixed-size bit vectors that back the bloom
// filters composing a bitmap filter. Each column of the {k×N}-bitmap in
// Figure 7 of the paper is one Vector.
//
// The implementation is engineered for the packet hot path:
//
//   - Capacities are rounded up to a power of two so bit addressing is a
//     single AND with a mask instead of a modulo.
//   - A ones counter is maintained incrementally on Set, making
//     OnesCount and Utilization O(1) instead of an O(N) popcount sweep.
//   - Clear is O(1): it bumps an epoch instead of zeroing memory. Words
//     are grouped into fixed-size blocks, each stamped with the epoch it
//     was last zeroed in; a block whose stamp is stale reads as all-zero.
//     Set lazily zeroes the one block it touches, and StepClear lets the
//     caller spread the physical memclr over subsequent packet
//     operations — a cleared-up-to watermark. Blocks below the watermark
//     have been zeroed into the new epoch; blocks above it are treated
//     as zero until swept or written.
//   - A mark that flips a bit also sets its 512-bit delta block's dirty
//     bit, so Sync can refresh a word image of the vector (an offload
//     map section) by visiting only the blocks marked since its last
//     sync.
//
// This bounds the per-packet latency contribution of the Δt rotation
// (Algorithm 1) to one block (512 bytes of memclr) instead of
// a full-vector O(N) spike, while preserving the paper's observation that
// the clean-up stays simple because "the memory space of a bit vector is
// fixed and continuous".
package bitvec

import (
	"math/bits"
	"strconv"
	"sync/atomic"
)

const wordBits = 64

// clearBlockWords is the number of words per lazily-cleared block: 64
// words = 4096 bits = 512 bytes of memclr when a stale block is
// freshened, the bounded unit of deferred clearing work.
const clearBlockWords = 64

// Vector is a fixed-size bit vector. The zero value is unusable; construct
// with New.
type Vector struct {
	words []uint64
	// blockEpoch[b] is the epoch in which block b (words
	// [b·clearBlockWords, (b+1)·clearBlockWords)) was last physically
	// zeroed. A block whose stamp differs from epoch is logically
	// all-zero regardless of its physical contents.
	blockEpoch []uint64
	epoch      uint64
	nbits      uint
	mask       uint32 // nbits − 1; nbits is always a power of two
	ones       int    // logical popcount, maintained incrementally
	sweep      int    // clear watermark: blocks below are freshened
	// dirty holds one bit per delta block (DeltaBlockWords words), set
	// when Set, SetAll, SetAligned or MergeBlock adds a bit to the
	// block and cleared by Sync, so a sync visits only the blocks marked
	// since the last one.
	dirty []uint64
	// syncs counts the Syncs that consumed dirty and the wholesale
	// writes (ReadFrom, LoadWords) that bypassed it. A SyncMark taken at
	// another count cannot trust the dirty bits.
	syncs uint64
}

// New returns a Vector with capacity for nbits bits, all zero. nbits is
// rounded up to the next power of two so that bits can be addressed with
// a mask; Len reports the rounded size.
func New(nbits uint) *Vector {
	nbits, nwords, nblocks, ndirty := geometry(nbits)
	return newVector(nbits, make([]uint64, nwords), make([]uint64, nblocks), make([]uint64, ndirty))
}

// geometry rounds nbits up to a power of two and returns it with the
// word, clear-block and dirty-word counts of a vector that size.
func geometry(nbits uint) (rounded uint, nwords, nblocks, ndirty int) {
	if nbits == 0 {
		panic("bitvec: vector size must be positive")
	}
	rounded = ceilPow2(nbits)
	nwords = int((rounded + wordBits - 1) / wordBits)
	nblocks = (nwords + clearBlockWords - 1) / clearBlockWords
	return rounded, nwords, nblocks, dirtyWords(nwords)
}

// newVector starts an all-zero vector of nbits (a power of two) over
// zeroed storage.
func newVector(nbits uint, words, stamps, dirty []uint64) *Vector {
	return &Vector{
		words:      words,
		blockEpoch: stamps,
		nbits:      nbits,
		mask:       uint32(nbits - 1),
		sweep:      len(stamps),
		dirty:      dirty,
	}
}

// dirtyWords returns the number of words holding one dirty bit per
// delta block of an nwords-word vector.
func dirtyWords(nwords int) int {
	nblk := (nwords + DeltaBlockWords - 1) / DeltaBlockWords
	return (nblk + wordBits - 1) / wordBits
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n uint) uint {
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len(n-1)
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() uint { return v.nbits }

// Bytes returns the storage footprint of the vector's bit words in bytes
// (the epoch stamps add len(words)/clearBlockWords extra words, ~1.6%).
func (v *Vector) Bytes() int { return len(v.words) * 8 }

// Set marks bit i as 1. Bits are addressed by the low log2(Len) bits of
// i, so a hash output already truncated to n bits maps directly. If the
// touched block is stale from a deferred Clear it is zeroed first, so a
// Set never resurrects old-epoch bits; this is the only hot-path work a
// deferred clear can induce, and it is bounded by one block.
//
//p2p:hotpath
func (v *Vector) Set(i uint32) {
	j := uint(i & v.mask)
	w := j / wordBits
	if blk := int(w / clearBlockWords); v.blockEpoch[blk] != v.epoch {
		v.freshen(blk)
	}
	bit := uint64(1) << (j % wordBits)
	if v.words[w]&bit == 0 {
		v.words[w] |= bit
		v.ones++
		v.markDirty(w)
	}
}

// SetAll marks every bit in idx: Set for each index, wherever the
// indexes fall, with the mask, epoch and slices loaded once and the
// ones counter updated once. Each index still freshens its block if a
// deferred clear left it stale, and each bit it flips marks its delta
// block dirty, exactly as Set does. It is the classic layout's marking
// kernel; SetAligned is the blocked layout's.
//
//p2p:hotpath
func (v *Vector) SetAll(idx []uint32) {
	words, stamps, dirty := v.words, v.blockEpoch, v.dirty
	mask, epoch := v.mask, v.epoch
	added := 0
	for _, i := range idx {
		j := uint(i & mask)
		w := j / wordBits
		if blk := int(w / clearBlockWords); stamps[blk] != epoch {
			v.freshen(blk)
		}
		bit := uint64(1) << (j % wordBits)
		if words[w]&bit == 0 {
			words[w] |= bit
			added++
			blk := w / DeltaBlockWords
			dirty[blk/wordBits] |= 1 << (blk % wordBits)
		}
	}
	v.ones += added
}

// markDirty records that word w's delta block gained a bit since the
// last Sync.
//
//p2p:hotpath
func (v *Vector) markDirty(w uint) {
	blk := w / DeltaBlockWords
	v.dirty[blk/wordBits] |= 1 << (blk % wordBits)
}

// SetAligned marks every bit in idx, which the caller guarantees all
// fall in one 512-bit cache line of the vector (the blocked-layout
// contract: indexes derived by hashes.Family.BlockedInto). Because one line
// never straddles a clear block — both are power-of-two sized and
// aligned — the stale-epoch check and any deferred-clear freshening are
// paid once for the whole group instead of once per bit, and the ones
// counter stays exact. The line is one delta block, so it is marked
// dirty at most once.
//
//p2p:hotpath
func (v *Vector) SetAligned(idx []uint32) {
	if len(idx) == 0 {
		return
	}
	j0 := uint(idx[0]&v.mask) / wordBits
	if blk := int(j0 / clearBlockWords); v.blockEpoch[blk] != v.epoch {
		v.freshen(blk)
	}
	added := 0
	for _, i := range idx {
		j := uint(i & v.mask)
		w := j / wordBits
		bit := uint64(1) << (j % wordBits)
		if v.words[w]&bit == 0 {
			v.words[w] |= bit
			added++
		}
	}
	if added != 0 {
		v.ones += added
		v.markDirty(j0)
	}
}

// GetAligned reports whether every bit in idx is marked, under the same
// one-cache-line contract as SetAligned. A stale clear block means the
// whole group logically reads zero, so the answer is false after a
// single stamp comparison.
//
//p2p:hotpath
func (v *Vector) GetAligned(idx []uint32) bool {
	if len(idx) == 0 {
		return true
	}
	j0 := uint(idx[0]&v.mask) / wordBits
	if v.blockEpoch[j0/clearBlockWords] != v.epoch {
		return false
	}
	for _, i := range idx {
		j := uint(i & v.mask)
		if v.words[j/wordBits]&(1<<(j%wordBits)) == 0 {
			return false
		}
	}
	return true
}

// Touch issues demand loads of the cache lines a later Set or Get of
// bit i will need — the word and its epoch stamp — without changing any
// state. Batch pass A calls it for every packet in a chunk so the
// (independent) line fills overlap instead of serializing behind each
// packet's decision in pass B. The loads are atomic only so the
// compiler cannot discard them; the vector remains single-writer.
//
//p2p:hotpath
func (v *Vector) Touch(i uint32) {
	j := uint(i & v.mask)
	w := j / wordBits
	atomic.LoadUint64(&v.blockEpoch[w/clearBlockWords])
	atomic.LoadUint64(&v.words[w])
}

// Get reports whether bit i is marked. A bit in a block not yet swept or
// written since the last Clear reads as zero.
//
//p2p:hotpath
func (v *Vector) Get(i uint32) bool {
	j := uint(i & v.mask)
	w := j / wordBits
	if v.blockEpoch[w/clearBlockWords] != v.epoch {
		return false
	}
	return v.words[w]&(1<<(j%wordBits)) != 0
}

// Clear logically resets every bit to zero in O(1) by advancing the
// epoch; the physical memclr is deferred. Callers that want the O(N)
// work spread across subsequent operations call StepClear repeatedly;
// callers that never do still observe correct all-zero reads, because
// Set and Get treat stale blocks as empty.
//
//p2p:hotpath
func (v *Vector) Clear() {
	v.epoch++
	v.ones = 0
	v.sweep = 0
}

// StepClear advances the deferred-clear watermark by at most nblocks
// blocks, physically zeroing any stale ones, and reports whether the
// sweep has covered the whole vector. Each block is 512 bytes, so the caller controls exactly how much memclr latency one call
// may add.
//
//p2p:hotpath
func (v *Vector) StepClear(nblocks int) bool {
	for nblocks > 0 && v.sweep < len(v.blockEpoch) {
		if v.blockEpoch[v.sweep] != v.epoch {
			v.freshen(v.sweep)
		}
		v.sweep++
		nblocks--
	}
	return v.sweep >= len(v.blockEpoch)
}

// freshen zeroes block blk and stamps it into the current epoch.
//
//p2p:hotpath
func (v *Vector) freshen(blk int) {
	lo := blk * clearBlockWords
	hi := lo + clearBlockWords
	if hi > len(v.words) {
		hi = len(v.words)
	}
	clear(v.words[lo:hi])
	v.blockEpoch[blk] = v.epoch
}

// normalize completes any deferred clear so the physical words equal the
// logical contents. Cold-path helpers (serialization, comparison,
// copying) call it; the hot path never does.
func (v *Vector) normalize() {
	v.StepClear(len(v.blockEpoch))
}

// OnesCount returns the number of marked bits, the quantity b in the
// utilization U = b/N of Equation 2. The count is maintained
// incrementally, so this is O(1).
//
//p2p:hotpath
func (v *Vector) OnesCount() int { return v.ones }

// Utilization returns the fraction of marked bits U = b/N in O(1).
//
//p2p:hotpath
func (v *Vector) Utilization() float64 {
	return float64(v.ones) / float64(v.nbits)
}

// CopyWords copies the vector's logical words into dst, which must hold
// exactly as many words as the vector. A block whose deferred clear has
// not been swept reads as zero without being materialized. It is the
// spill half of a tenant eviction; LoadWords is its inverse.
func (v *Vector) CopyWords(dst []uint64) {
	if len(dst) != len(v.words) {
		panic("bitvec: CopyWords into " + strconv.Itoa(len(dst)) + " words, vector has " + strconv.Itoa(len(v.words)))
	}
	for lo := 0; lo < len(v.words); lo += clearBlockWords {
		hi := min(lo+clearBlockWords, len(v.words))
		if v.blockEpoch[lo/clearBlockWords] == v.epoch {
			copy(dst[lo:hi], v.words[lo:hi])
		} else {
			clear(dst[lo:hi])
		}
	}
}

// LoadWords overwrites the vector with words that CopyWords took from a
// vector of the same size. Like ReadFrom it rewrites the vector
// wholesale, past the dirty bits, so it bumps the sync count: the next
// Sync of any image compares every word.
func (v *Vector) LoadWords(src []uint64) {
	if len(src) != len(v.words) {
		panic("bitvec: LoadWords from " + strconv.Itoa(len(src)) + " words, vector has " + strconv.Itoa(len(v.words)))
	}
	ones := 0
	for i, w := range src {
		v.words[i] = w
		ones += bits.OnesCount64(w)
	}
	for i := range v.blockEpoch {
		v.blockEpoch[i] = v.epoch
	}
	v.sweep = len(v.blockEpoch)
	v.ones = ones
	v.syncs++
}

// Header loads the fields a Set or Get reads before its bit line and
// returns a value derived from them. A batch kernel calls it for many
// vectors in a row, so that the header misses of different packets
// overlap; the caller folds the result into a sink so the loads stay.
//
//p2p:hotpath
func (v *Vector) Header() uint64 {
	return v.epoch + uint64(v.ones) + uint64(len(v.words)) + uint64(len(v.dirty))
}

// Equal reports whether two vectors have identical size and logical
// contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.nbits != o.nbits {
		return false
	}
	if v.ones != o.ones {
		return false
	}
	v.normalize()
	o.normalize()
	for i, w := range v.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// String summarizes the vector for debugging.
func (v *Vector) String() string {
	return "bitvec(" + strconv.FormatUint(uint64(v.nbits), 10) + " bits, " +
		strconv.Itoa(v.OnesCount()) + " set)"
}
