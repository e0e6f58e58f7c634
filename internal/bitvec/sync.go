// Dirty-block sync: the offload publisher's view of a vector.
//
// Between two rotations a bitmap filter only adds marks (Algorithm 2),
// and a rotation clears one whole vector (Algorithm 1). A word image
// kept equal to a vector — a flat offload map section — therefore needs
// only the delta blocks marked since its last sync, unless the vector
// was cleared or rewritten wholesale in between, or another image
// consumed the dirty bits. Sync takes the first path when a SyncMark
// proves none of that happened, and compares the whole image otherwise.
// It is cold-path: publication runs between packet batches on the
// vector's owning goroutine.
package bitvec

import (
	"errors"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// SyncMark records the state a word image was left equal to by its last
// Sync: the vector itself, that vector's clear epoch, and its sync
// count. It holds the pointer, not an address or an index, so no other
// vector can match it, and a vector that serves another filter after a
// Clear, as a pooled tenant shell's vectors do after core.Filter.Reset,
// fails on the epoch. The zero value matches no vector.
type SyncMark struct {
	vec   *Vector
	epoch uint64
	syncs uint64
}

// Sync makes dst, a word image of the vector, equal to the vector's
// logical contents. It stores with sync/atomic only the words that
// differ, so atomic readers of dst see each word either before or after
// the sync, never torn. A block whose deferred clear has not been swept
// reads as zero without being materialized.
//
// When mark matches the vector — same pointer, clear epoch and sync
// count — dst equalled the vector at its last Sync, and only the delta
// blocks marked since are compared. Otherwise (a first sync, a Clear, a
// ReadFrom or LoadWords, a different vector, or another image synced in
// between) every word of dst is compared. Either way Sync consumes the
// dirty bits and updates mark.
func (v *Vector) Sync(dst []uint64, mark *SyncMark) error {
	if len(dst) != len(v.words) {
		return errors.New("bitvec: sync image has " + strconv.Itoa(len(dst)) +
			" words, vector has " + strconv.Itoa(len(v.words)))
	}
	if mark.vec == v && mark.epoch == v.epoch && mark.syncs == v.syncs {
		for i, d := range v.dirty {
			if d == 0 {
				continue
			}
			v.dirty[i] = 0
			for ; d != 0; d &= d - 1 {
				lo, hi := v.blockSpan(i*wordBits + bits.TrailingZeros64(d))
				v.syncWords(dst, lo, hi)
			}
		}
	} else {
		for lo := 0; lo < len(v.words); lo += clearBlockWords {
			v.syncWords(dst, lo, min(lo+clearBlockWords, len(v.words)))
		}
		clear(v.dirty)
	}
	v.syncs++
	*mark = SyncMark{vec: v, epoch: v.epoch, syncs: v.syncs}
	return nil
}

// syncWords makes dst[lo:hi] equal to the vector's logical words
// [lo, hi), a range inside one clear block.
func (v *Vector) syncWords(dst []uint64, lo, hi int) {
	fresh := v.blockEpoch[lo/clearBlockWords] == v.epoch
	for i := lo; i < hi; i++ {
		var w uint64
		if fresh {
			w = v.words[i]
		}
		if atomic.LoadUint64(&dst[i]) != w {
			atomic.StoreUint64(&dst[i], w)
		}
	}
}
