// Delta-block operations: the replication layer's view of a vector.
//
// internal/replica ships filter state between fleet members as XOR
// deltas of 512-bit blocks — one cache line, the same unit as the
// blocked layout — and repairs divergence with per-block-range CRC32C
// digests. All of it is cold-path (no //p2p:hotpath): replication runs
// between packet batches on the owning goroutine.
//
// The operations honour lazy-epoch clearing: diffs and digests
// normalize first so deferred clears read as zero, and a merge
// freshens the covering clear block exactly like Set, so merged bits
// can never resurrect old-epoch contents.
package bitvec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
	"strconv"
)

const (
	// DeltaBlockWords is the number of 64-bit words per replication
	// delta block: 8 words = 512 bits = 64 bytes, one cache line.
	DeltaBlockWords = 8
	// DeltaBlockBytes is the wire size of one delta block.
	DeltaBlockBytes = DeltaBlockWords * 8
)

// deltaCastagnoli is the CRC32C table behind range digests — the same
// polynomial as the snapshot trailer, so the whole sync stack shares
// one checksum discipline.
var deltaCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBlockRange is returned when a delta block index or its contents
// fall outside the vector — the typed rejection a replica uses to
// discard a frame from a peer with mismatched geometry.
var ErrBlockRange = errors.New("bitvec: delta block out of range")

// DeltaBlocks returns the number of 512-bit delta blocks covering the
// vector. Vectors smaller than one block still count one.
func (v *Vector) DeltaBlocks() int {
	return (len(v.words) + DeltaBlockWords - 1) / DeltaBlockWords
}

// blockSpan returns the word range [lo, hi) of delta block blk.
func (v *Vector) blockSpan(blk int) (lo, hi int) {
	lo = blk * DeltaBlockWords
	hi = lo + DeltaBlockWords
	if hi > len(v.words) {
		hi = len(v.words)
	}
	return lo, hi
}

// tailMask returns the valid-bit mask of the vector's last word: all
// ones unless the vector is smaller than one word.
func (v *Vector) tailMask() uint64 {
	if r := v.nbits % wordBits; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// DiffBlocks calls fn once for every delta block whose logical
// contents differ from base, passing the XOR of the two blocks — for
// a baseline that is a subset (the acked shadow of a monotone
// mark-only vector), exactly the newly set bits. A nil base diffs
// against all-zero, emitting every non-empty block. The pointed-to
// array is reused across calls; fn must consume it before returning.
func (v *Vector) DiffBlocks(base *Vector, fn func(blk uint32, xor *[DeltaBlockWords]uint64)) error {
	if base != nil && base.nbits != v.nbits {
		return errors.New("bitvec: diff size mismatch: " + strconv.FormatUint(uint64(base.nbits), 10) +
			" != " + strconv.FormatUint(uint64(v.nbits), 10))
	}
	v.normalize()
	if base != nil {
		base.normalize()
	}
	var xor [DeltaBlockWords]uint64
	for b := 0; b < v.DeltaBlocks(); b++ {
		lo, hi := v.blockSpan(b)
		diff := false
		for i := lo; i < hi; i++ {
			var bw uint64
			if base != nil {
				bw = base.words[i]
			}
			x := v.words[i] ^ bw
			xor[i-lo] = x
			diff = diff || x != 0
		}
		if diff {
			for i := hi - lo; i < DeltaBlockWords; i++ {
				xor[i] = 0
			}
			fn(uint32(b), &xor)
		}
	}
	return nil
}

// CheckBlock validates a block patch against the vector's geometry
// without applying it: the block index must exist and no bit may fall
// outside the vector (a short final block's padding, or junk beyond a
// sub-word vector's length). Receivers pre-validate every patch of a
// frame with it so a bad frame is rejected whole, before any mutation.
func (v *Vector) CheckBlock(blk uint32, words *[DeltaBlockWords]uint64) error {
	if int(blk) >= v.DeltaBlocks() {
		return ErrBlockRange
	}
	lo, hi := v.blockSpan(int(blk))
	n := hi - lo
	for i := n; i < DeltaBlockWords; i++ {
		if words[i] != 0 {
			return ErrBlockRange
		}
	}
	if hi == len(v.words) && words[n-1]&^v.tailMask() != 0 {
		return ErrBlockRange
	}
	return nil
}

// MergeBlock ORs one delta block into the vector, returning the number
// of newly set bits. The merge is union-only — bits can be added,
// never cleared — so a merged vector is always a superset and a
// replicated flow can never become a false negative. Patches CheckBlock
// rejects are refused before any mutation.
func (v *Vector) MergeBlock(blk uint32, words *[DeltaBlockWords]uint64) (int, error) {
	if err := v.CheckBlock(blk, words); err != nil {
		return 0, err
	}
	lo, hi := v.blockSpan(int(blk))
	// One delta block (8 words) never straddles a clear block (64
	// words, aligned), so a single freshen check suffices — the same
	// invariant Set relies on.
	if cb := lo / clearBlockWords; v.blockEpoch[cb] != v.epoch {
		v.freshen(cb)
	}
	added := 0
	for i := lo; i < hi; i++ {
		w := v.words[i] | words[i-lo]
		added += bits.OnesCount64(w ^ v.words[i])
		v.words[i] = w
	}
	if added != 0 {
		v.ones += added
		v.markDirty(uint(lo))
	}
	return added, nil
}

// BlockWords copies the logical contents of one delta block into dst,
// zero-filling any padding past a short final block. A block in a
// stale clear block reads as all-zero without materializing it.
func (v *Vector) BlockWords(blk uint32, dst *[DeltaBlockWords]uint64) error {
	if int(blk) >= v.DeltaBlocks() {
		return ErrBlockRange
	}
	lo, hi := v.blockSpan(int(blk))
	if v.blockEpoch[lo/clearBlockWords] != v.epoch {
		*dst = [DeltaBlockWords]uint64{}
		return nil
	}
	for i := lo; i < hi; i++ {
		dst[i-lo] = v.words[i]
	}
	for i := hi - lo; i < DeltaBlockWords; i++ {
		dst[i] = 0
	}
	return nil
}

// RangeCount returns the number of digest ranges AppendRangeDigests
// emits for the given range width.
func (v *Vector) RangeCount(blocksPerRange int) int {
	if blocksPerRange <= 0 {
		blocksPerRange = 1
	}
	return (v.DeltaBlocks() + blocksPerRange - 1) / blocksPerRange
}

// AppendRangeDigests appends one CRC32C per consecutive group of
// blocksPerRange delta blocks, computed over the logical (post-clear)
// little-endian contents. Two vectors with equal logical contents
// yield equal digests regardless of their deferred-clear state, so
// anti-entropy peers can compare state without exchanging it.
func (v *Vector) AppendRangeDigests(blocksPerRange int, dst []uint32) []uint32 {
	if blocksPerRange <= 0 {
		blocksPerRange = 1
	}
	v.normalize()
	var buf [DeltaBlockBytes]byte
	nb := v.DeltaBlocks()
	for lo := 0; lo < nb; lo += blocksPerRange {
		hi := lo + blocksPerRange
		if hi > nb {
			hi = nb
		}
		crc := uint32(0)
		for b := lo; b < hi; b++ {
			wlo, whi := v.blockSpan(b)
			for i := wlo; i < whi; i++ {
				binary.LittleEndian.PutUint64(buf[(i-wlo)*8:], v.words[i])
			}
			for i := (whi - wlo) * 8; i < len(buf); i++ {
				buf[i] = 0
			}
			crc = crc32.Update(crc, deltaCastagnoli, buf[:])
		}
		dst = append(dst, crc)
	}
	return dst
}
