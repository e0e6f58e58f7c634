package bitvec

import (
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Arena is a slab allocator for fixed-geometry Vectors. A multi-tenant
// control plane builds thousands of small per-subscriber filters, and
// one make([]uint64) triple per vector would scatter their words across
// the heap. An arena instead carves vectors out of shared slabs: each
// span is 512-bit aligned and holds one vector's words, clear-block
// epoch stamps and dirty-block bits side by side, so a vector's lines
// are adjacent and the blocked layout's cache-line contract holds.
// Spans are never returned: the owner keeps retired vectors whole (the
// tenant manager pools whole filters), so the arena only grows, and its
// footprint is bounded by the most vectors ever live at once.
//
// All vectors from one arena share a single size (the nbits fixed at
// construction); that is exactly the multi-tenant shape, where every
// subscriber runs the same compact geometry. NewVector must be called
// from one goroutine at a time; FootprintBytes may be read from any.
type Arena struct {
	nbits uint // per-vector capacity (power of two, as in New)
	// spanWords is the carve unit: word storage, epoch stamps and
	// dirty-block bits, rounded up to a multiple of alignWords so every
	// span stays 64-byte aligned within its slab.
	spanWords    int
	nwords       int
	nblocks      int
	ndirty       int
	spansPerSlab int
	cur          []uint64     //p2p:confined arena // aligned tail of the newest slab
	slabs        atomic.Int64 //p2p:atomic
}

// alignWords is the span alignment in words: 8 words = 64 bytes = one
// cache line = the 512-bit block unit of the blocked layout.
const alignWords = 8

// NewArena returns an arena producing vectors of nbits capacity (rounded
// up to a power of two exactly as New does), allocating backing slabs of
// vectorsPerSlab (positive) spans at a time.
func NewArena(nbits uint, vectorsPerSlab int) *Arena {
	nbits, nwords, nblocks, ndirty := geometry(nbits)
	span := nwords + nblocks + ndirty
	if r := span % alignWords; r != 0 {
		span += alignWords - r
	}
	if vectorsPerSlab <= 0 {
		panic("bitvec: arena slab must hold at least one vector")
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

// NewVector carves a zeroed vector out of the arena, growing a fresh
// slab when the current one is used up. nbits must round to the
// arena's configured geometry.
//
//p2p:confined arena entry
func (a *Arena) NewVector(nbits uint) *Vector {
	if ceilPow2(nbits) != a.nbits {
		panic("bitvec: arena geometry mismatch: want " + strconv.FormatUint(uint64(a.nbits), 10) +
			" bits, got " + strconv.FormatUint(uint64(nbits), 10))
	}
	if len(a.cur) < a.spanWords {
		// One spare alignment unit absorbs the alignment trim below.
		slab := make([]uint64, a.spanWords*a.spansPerSlab+alignWords)
		off := 0
		if rem := int(uintptr(unsafe.Pointer(&slab[0])) % (alignWords * 8)); rem != 0 {
			off = alignWords - rem/8
		}
		a.cur = slab[off:]
		a.slabs.Add(1)
	}
	span := a.cur[:a.spanWords:a.spanWords]
	a.cur = a.cur[a.spanWords:]
	w, b, d := a.nwords, a.nwords+a.nblocks, a.nwords+a.nblocks+a.ndirty
	return newVector(a.nbits, span[:w:w], span[w:b:b], span[b:d:d])
}

// FootprintBytes returns the total backing storage the arena has
// allocated. It is safe to call concurrently with NewVector.
func (a *Arena) FootprintBytes() int {
	return int(a.slabs.Load()) * (a.spanWords*a.spansPerSlab + alignWords) * 8
}
