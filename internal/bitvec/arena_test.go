package bitvec

import (
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"
)

func TestArenaVectorBehavesLikeNew(t *testing.T) {
	a := NewArena(1<<14, 8)
	av := a.NewVector(1 << 14)
	nv := New(1 << 14)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 5000; i++ {
		bit := rng.Uint32()
		av.Set(bit)
		nv.Set(bit)
	}
	if !av.Equal(nv) {
		t.Fatal("arena vector diverged from New vector under identical Sets")
	}
	if av.OnesCount() != nv.OnesCount() {
		t.Fatalf("ones mismatch: arena %d, new %d", av.OnesCount(), nv.OnesCount())
	}
	av.Clear()
	nv.Clear()
	if !av.Equal(nv) {
		t.Fatal("arena vector diverged after Clear")
	}
}

func TestArenaGeometryRounding(t *testing.T) {
	a := NewArena(1000, 4)
	// Any nbits that rounds to the arena geometry is accepted.
	v := a.NewVector(1000)
	if v.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", v.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewVector with mismatched geometry did not panic")
		}
	}()
	a.NewVector(2048)
}

func TestArenaSpanAlignment(t *testing.T) {
	a := NewArena(4096, 5)
	for i := 0; i < 20; i++ {
		v := a.NewVector(4096)
		addr := uintptr(unsafe.Pointer(&v.words[0]))
		if addr%64 != 0 {
			t.Fatalf("vector %d words not 64-byte aligned: %#x", i, addr)
		}
	}
}

// TestArenaFreeListReuse pins how an arena reuses storage now that spans
// are never returned: carving fills the current slab span by span before
// it grows another, and each vector's words, epoch stamps and dirty bits
// lie inside its own span, so writing or clearing one vector leaves its
// neighbours as they were.
func TestArenaFreeListReuse(t *testing.T) {
	const perSlab = 4
	a := NewArena(2048, perSlab)
	span := uintptr(a.spanWords * 8)
	vs := make([]*Vector, 10)
	for i := range vs {
		v := a.NewVector(2048)
		vs[i] = v
		start := uintptr(unsafe.Pointer(&v.words[0]))
		for _, s := range [][]uint64{v.words, v.blockEpoch, v.dirty} {
			lo := uintptr(unsafe.Pointer(&s[0]))
			if lo < start || lo+uintptr(cap(s)*8) > start+span {
				t.Fatalf("vector %d: slice [%#x, +%d words) outside its span [%#x, +%d B)", i, lo, cap(s), start, span)
			}
		}
		if i%perSlab != 0 {
			if prev := uintptr(unsafe.Pointer(&vs[i-1].words[0])); start-prev != span {
				t.Fatalf("vector %d starts %d B after vector %d, want the next span (%d B)", i, start-prev, i-1, span)
			}
		}
	}
	for i, v := range vs {
		v.Set(uint32(i))
	}
	vs[3].Clear()
	for i, v := range vs {
		want := 1
		if i == 3 {
			want = 0
		}
		if v.OnesCount() != want || v.Get(uint32(i)) != (want == 1) {
			t.Fatalf("vector %d: ones %d, bit %d %v; want %d ones with only its own bit", i, v.OnesCount(), i, v.Get(uint32(i)), want)
		}
	}
	if want := 3 * (a.spanWords*perSlab + alignWords) * 8; a.FootprintBytes() != want {
		t.Fatalf("10 vectors at %d a slab: footprint %d, want 3 slabs (%d)", perSlab, a.FootprintBytes(), want)
	}
}

// TestArenaConcurrentChurn runs the arena's one concurrent contract
// under -race: a single writer carves and fills vectors, as a tenant
// shard does, while other goroutines read FootprintBytes, which must
// only grow and always count whole slabs.
func TestArenaConcurrentChurn(t *testing.T) {
	const perSlab, n = 8, 200
	a := NewArena(4096, perSlab)
	slab := (a.spanWords*perSlab + alignWords) * 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0; ; {
				got := a.FootprintBytes()
				if got%slab != 0 || got < last {
					t.Errorf("footprint %d: not whole slabs of %d B, or shrank from %d", got, slab, last)
					return
				}
				last = got
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	rng := rand.New(rand.NewPCG(1, 0xabcdef))
	for i := 0; i < n; i++ {
		v := a.NewVector(4096)
		set := make(map[uint32]bool)
		for j := 0; j < 32; j++ {
			bit := rng.Uint32() & 4095
			v.Set(bit)
			set[bit] = true
		}
		if v.OnesCount() != len(set) {
			t.Fatalf("vector %d: ones %d, want %d", i, v.OnesCount(), len(set))
		}
	}
	close(stop)
	wg.Wait()
	if want := (n + perSlab - 1) / perSlab * slab; a.FootprintBytes() != want {
		t.Fatalf("after %d vectors: footprint %d, want %d", n, a.FootprintBytes(), want)
	}
}

// TestArenaFootprintWholeSlabs pins that FootprintBytes counts whole
// slabs, one more for each vectorsPerSlab vectors carved.
func TestArenaFootprintWholeSlabs(t *testing.T) {
	const perSlab = 4
	a := NewArena(2048, perSlab)
	if got := a.FootprintBytes(); got != 0 {
		t.Fatalf("fresh arena footprint = %d, want 0", got)
	}
	// One slab: perSlab spans of 32 words + 1 stamp + 1 dirty word,
	// rounded to 40 words, plus one alignment unit.
	slab := (perSlab*40 + alignWords) * 8
	for i := 1; i <= 3*perSlab; i++ {
		a.NewVector(2048).Set(uint32(i))
		if want := (i + perSlab - 1) / perSlab * slab; a.FootprintBytes() != want {
			t.Fatalf("after %d vectors: footprint %d, want %d", i, a.FootprintBytes(), want)
		}
	}
}
