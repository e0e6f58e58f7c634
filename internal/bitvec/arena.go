package bitvec

import (
	"errors"
	"strconv"
	"sync"
	"unsafe"
)

// Arena is a slab allocator for fixed-geometry Vectors. A multi-tenant
// control plane hydrating and evicting hundreds of thousands of small
// per-subscriber filters cannot afford one make([]uint64) pair per
// vector per hydration: the allocations fragment the heap, defeat the
// cache-line alignment the blocked layout depends on, and put GC
// pressure on the churn path. An arena instead carves vectors out of
// shared slabs — each span is 512-bit aligned and sized for one vector's
// words plus its clear-block epoch stamps and dirty-block bits — and
// recycles released spans through a free list, so steady-state tenant
// churn allocates nothing.
//
// All vectors from one arena share a single size (the nbits fixed at
// construction); that is exactly the multi-tenant shape, where every
// subscriber runs the same compact geometry. The arena is safe for
// concurrent use, but it sits on the hydration/eviction control path,
// never under a packet decision.
type Arena struct {
	mu    sync.Mutex
	nbits uint // per-vector capacity (power of two, as in New)
	// spanWords is the carve unit: word storage, epoch stamps and
	// dirty-block bits, rounded up to a multiple of alignWords so every
	// span stays 64-byte aligned within its slab.
	spanWords    int
	nwords       int
	nblocks      int
	ndirty       int
	spansPerSlab int
	free         [][]uint64 //p2p:confined arena // released spans awaiting reuse
	cur          []uint64   //p2p:confined arena // aligned tail of the newest slab
	slabs        int        //p2p:confined arena
	live         int        //p2p:confined arena
}

// alignWords is the span alignment in words: 8 words = 64 bytes = one
// cache line = the 512-bit block unit of the blocked layout.
const alignWords = 8

// NewArena returns an arena producing vectors of nbits capacity (rounded
// up to a power of two exactly as New does), allocating backing slabs of
// vectorsPerSlab spans at a time. vectorsPerSlab <= 0 selects a default
// sized to keep slabs around 64 spans.
func NewArena(nbits uint, vectorsPerSlab int) *Arena {
	if nbits == 0 {
		panic("bitvec: arena vector size must be positive")
	}
	nbits = ceilPow2(nbits)
	nwords := int((nbits + wordBits - 1) / wordBits)
	nblocks := (nwords + clearBlockWords - 1) / clearBlockWords
	ndirty := dirtyWords(nwords)
	span := nwords + nblocks + ndirty
	if r := span % alignWords; r != 0 {
		span += alignWords - r
	}
	if vectorsPerSlab <= 0 {
		vectorsPerSlab = 64
	}
	return &Arena{
		nbits:        nbits,
		spanWords:    span,
		nwords:       nwords,
		nblocks:      nblocks,
		ndirty:       ndirty,
		spansPerSlab: vectorsPerSlab,
	}
}

// NBits returns the (rounded) per-vector capacity the arena produces.
func (a *Arena) NBits() uint { return a.nbits }

// NewVector carves a zeroed vector out of the arena. nbits must round to
// the arena's configured geometry — the single-size contract is what
// makes span recycling trivial — and is accepted as a parameter only so
// Arena satisfies the allocator seam filters construct through.
//
//p2p:confined arena entry
func (a *Arena) NewVector(nbits uint) *Vector {
	if ceilPow2(nbits) != a.nbits {
		panic("bitvec: arena geometry mismatch: want " + strconv.FormatUint(uint64(a.nbits), 10) +
			" bits, got " + strconv.FormatUint(uint64(nbits), 10))
	}
	a.mu.Lock()
	span := a.take()
	a.live++
	a.mu.Unlock()
	words := span[:a.nwords:a.nwords]
	stamps := span[a.nwords : a.nwords+a.nblocks : a.nwords+a.nblocks]
	dirty := span[a.nwords+a.nblocks : a.nwords+a.nblocks+a.ndirty : a.nwords+a.nblocks+a.ndirty]
	// A recycled span carries a retired tenant's bits. Rather than memclr
	// the whole span, reuse the lazy-clear machinery: zero only the epoch
	// stamps and start the vector at epoch 1, so every block reads stale
	// (logically zero) and is physically freshened on first touch or by
	// the deferred sweep — the same discipline Rotate relies on.
	clear(stamps)
	clear(dirty)
	return &Vector{
		words:      words,
		blockEpoch: stamps,
		epoch:      1,
		nbits:      a.nbits,
		mask:       uint32(a.nbits - 1),
		dirty:      dirty,
		span:       span,
	}
}

// take returns one span, preferring the free list, then the current
// slab's tail, growing a fresh slab only when both are empty. Callers
// hold a.mu.
//
//p2p:confined arena
func (a *Arena) take() []uint64 {
	if n := len(a.free); n > 0 {
		span := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return span
	}
	if len(a.cur) < a.spanWords {
		// One spare alignment unit absorbs the alignment trim below.
		slab := make([]uint64, a.spanWords*a.spansPerSlab+alignWords)
		off := 0
		if rem := int(uintptr(unsafe.Pointer(&slab[0])) % (alignWords * 8)); rem != 0 {
			off = alignWords - rem/8
		}
		a.cur = slab[off:]
		a.slabs++
	}
	span := a.cur[:a.spanWords:a.spanWords]
	a.cur = a.cur[a.spanWords:]
	return span
}

// Release returns a vector's span to the arena for reuse. The vector
// must have been produced by this arena (same geometry) and must not be
// used afterwards; the caller owns that lifecycle — in the tenant
// manager, eviction snapshots the filter before releasing its vectors.
//
//p2p:confined arena entry
func (a *Arena) Release(v *Vector) error {
	if v.span == nil {
		return errors.New("bitvec: release of a non-arena vector")
	}
	if v.nbits != a.nbits {
		return errors.New("bitvec: release geometry mismatch: arena " + strconv.FormatUint(uint64(a.nbits), 10) +
			" bits, vector " + strconv.FormatUint(uint64(v.nbits), 10))
	}
	span := v.span
	v.span = nil
	v.words = nil
	v.blockEpoch = nil
	v.dirty = nil
	a.mu.Lock()
	a.free = append(a.free, span)
	a.live--
	a.mu.Unlock()
	return nil
}

// ArenaStats is a point-in-time usage summary.
type ArenaStats struct {
	Slabs int // backing slabs allocated
	Live  int // vectors currently carved out
	Free  int // recycled spans awaiting reuse
}

// Stats reports the arena's current occupancy.
//
//p2p:confined arena entry
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Slabs: a.slabs, Live: a.live, Free: len(a.free)}
}

// FootprintBytes returns the total backing storage the arena has
// allocated, whether carved out or free.
//
//p2p:confined arena entry
func (a *Arena) FootprintBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slabs * (a.spanWords*a.spansPerSlab + alignWords) * 8
}
