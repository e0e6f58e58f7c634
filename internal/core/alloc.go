package core

import (
	"math/rand/v2"
	"time"

	"p2pbound/internal/errfmt"
)

// Empty reports whether no bit is marked in any vector — the gate for
// the evict fast path that spills only rotation and rng state instead
// of a full snapshot. Ones counts are logical (a lazily-cleared vector
// reads zero), and O(1) per vector.
func (f *Filter) Empty() bool {
	for _, v := range f.vectors {
		if v.OnesCount() != 0 {
			return false
		}
	}
	return true
}

// Reset readies a filter shell for another suspended state while
// keeping its vectors: every vector is cleared (in O(1), the clear
// deferred as after a rotation), the rotation schedule restarts as at
// construction, the counters return to zero, and the P_d source is
// reseeded from seed. A tenant manager pools the shells of evicted
// filters per shard and resets one on each hydration, so hydrating
// allocates nothing proportional to the filter. The caller must own
// the filter outright: no reader may still reach it (Limiter.swapFilter
// retires a filter under the lock its Stats readers take).
func (f *Filter) Reset(seed uint64) {
	for _, v := range f.vectors {
		v.Clear()
	}
	f.started, f.idx, f.sweepVec, f.next, f.lastTS = false, 0, -1, 0, 0
	f.pend.outbound, f.pend.inbound, f.pend.hits, f.pend.misses, f.pend.dropped = 0, 0, 0, 0, 0
	f.stats.outbound.Store(0)
	f.stats.inbound.Store(0)
	f.stats.hits.Store(0)
	f.stats.misses.Store(0)
	f.stats.dropped.Store(0)
	f.stats.rotations.Store(0)
	f.stats.timeAnomalies.Store(0)
	f.cfg.Seed = seed
	f.pcg.Seed(seed, seed^pcgStream)
}

// Words returns the number of 64-bit words SpillWords copies: the bits
// of all k vectors.
func (f *Filter) Words() int { return f.Bytes() / 8 }

// SpillWords copies the logical words of all k vectors, vector after
// vector, into dst, which must hold Words() words. Blocks whose
// deferred clear has not been swept read as zero. With RotationState
// and RNGState it is the whole suspended form of a filter: LoadWords
// restores it, and AppendSnapshot renders it as a snapshot.
func (f *Filter) SpillWords(dst []uint64) {
	n := len(dst) / len(f.vectors)
	for i, v := range f.vectors {
		v.CopyWords(dst[i*n : (i+1)*n])
	}
}

// LoadWords overwrites all k vectors with words SpillWords copied from
// a filter of the same geometry. Each vector's sync count moves on, so
// an offload image synced from this filter compares every word next
// time.
func (f *Filter) LoadWords(src []uint64) {
	n := len(src) / len(f.vectors)
	for i, v := range f.vectors {
		v.LoadWords(src[i*n : (i+1)*n])
	}
}

// RotationState is the part of a filter's temporal state that the v2
// snapshot format does not fully carry but verdict-exact suspend/resume
// needs: the monotonic clamp high-water mark (LastTS) on top of the
// rotation schedule (Started/Index/Next) the snapshot header already
// records. A tenant manager evicting an idle tenant saves this plus the
// rng state; restoring both makes the rehydrated filter's subsequent
// verdicts, rotations, and anomaly accounting bit-identical to a filter
// that was never evicted.
//
//p2p:codec
type RotationState struct {
	Started bool
	Index   int
	Next    time.Duration
	LastTS  time.Duration
}

// RotationState returns the filter's current rotation/clamp state.
func (f *Filter) RotationState() RotationState {
	return RotationState{Started: f.started, Index: f.idx, Next: f.next, LastTS: f.lastTS}
}

// SetRotationState overwrites the rotation/clamp state. The index must
// be in range for the filter's K.
func (f *Filter) SetRotationState(st RotationState) error {
	if st.Index < 0 || st.Index >= f.cfg.K {
		return errfmt.Detail("core: rotation state index out of range", ErrSnapshotCorrupt)
	}
	f.started = st.Started
	f.idx = st.Index
	f.next = st.Next
	f.lastTS = st.LastTS
	return nil
}

// RNGState serializes the P_d draw source. The paper's Algorithm 2
// draws one uniform variate per unmarked bit; replaying the exact draw
// sequence across an evict/rehydrate cycle requires carrying the PCG
// position, which the v2 snapshot (deliberately, for fleet use) does
// not.
func (f *Filter) RNGState() ([]byte, error) {
	b, err := f.pcg.MarshalBinary()
	if err != nil {
		return nil, errfmt.Wrap("core: marshal rng state", err)
	}
	return b, nil
}

// SetRNGState restores a P_d draw source serialized by RNGState.
func (f *Filter) SetRNGState(b []byte) error {
	if err := f.pcg.UnmarshalBinary(b); err != nil {
		return errfmt.Detail("core: rng state: "+err.Error(), ErrSnapshotCorrupt)
	}
	return nil
}

// ValidateRNGState reports whether b is a well-formed RNGState encoding
// without touching any filter — the staged-validation half of a
// multi-tenant snapshot restore, which must prove every frame applies
// cleanly before applying any.
func ValidateRNGState(b []byte) error {
	var pcg rand.PCG
	if err := pcg.UnmarshalBinary(b); err != nil {
		return errfmt.Detail("core: rng state: "+err.Error(), ErrSnapshotCorrupt)
	}
	return nil
}
