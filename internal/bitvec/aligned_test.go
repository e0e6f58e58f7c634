package bitvec

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// alignedGroup derives m indexes confined to one 512-bit line of an
// nbits-bit vector, the contract SetAligned/GetAligned operate under.
func alignedGroup(r *rand.Rand, nbits uint, m int) []uint32 {
	lineBits := uint32(512)
	if uint32(nbits) < lineBits {
		lineBits = uint32(nbits)
	}
	base := (r.Uint32() % (uint32(nbits) / lineBits)) * lineBits
	idx := make([]uint32, m)
	for i := range idx {
		idx[i] = base + r.Uint32()%lineBits
	}
	return idx
}

// TestAlignedMatchesScalar: SetAligned and GetAligned are pure
// optimizations — for any one-line group they must be observationally
// identical to the per-bit Set/Get loop on a second vector.
func TestAlignedMatchesScalar(t *testing.T) {
	const nbits = 1 << 13
	r := rand.New(rand.NewPCG(42, 99))
	a, b := New(nbits), New(nbits)
	for step := 0; step < 5000; step++ {
		switch r.IntN(10) {
		case 0: // logical clear on both
			a.Clear()
			b.Clear()
		case 1, 2: // partial deferred sweep on both
			n := r.IntN(3)
			a.StepClear(n)
			b.StepClear(n)
		default:
			g := alignedGroup(r, nbits, 1+r.IntN(8))
			a.SetAligned(g)
			for _, i := range g {
				b.Set(i)
			}
		}
		probe := alignedGroup(r, nbits, 1+r.IntN(8))
		want := true
		for _, i := range probe {
			if !b.Get(i) {
				want = false
				break
			}
		}
		if got := a.GetAligned(probe); got != want {
			t.Fatalf("step %d: GetAligned = %v, scalar Get loop = %v", step, got, want)
		}
		if a.OnesCount() != b.OnesCount() {
			t.Fatalf("step %d: aligned ones %d != scalar ones %d", step, a.OnesCount(), b.OnesCount())
		}
	}
	if !a.Equal(b) {
		t.Fatal("aligned and scalar vectors diverged")
	}
}

// TestOnesCountExactUnderInterleavedOps: the O(1) OnesCount (and thus
// Utilization, the U of Equation 2) must track the true set cardinality
// exactly through any interleaving of scalar sets, scattered and
// aligned group sets, deferred clears, and partial sweeps — including
// across a uint64 epoch wrap, which the test forces by starting the
// epoch three steps below overflow.
func TestOnesCountExactUnderInterleavedOps(t *testing.T) {
	const nbits = 1 << 14
	r := rand.New(rand.NewPCG(7, 11))
	v := New(nbits)
	// Park the epoch at the edge of uint64 so the Clears below wrap it
	// through zero. Stale stamps must still read as logically empty on
	// the far side of the wrap.
	v.epoch = ^uint64(0) - 2
	v.sweep = 0
	ref := make(map[uint32]bool)
	clears := 0
	for step := 0; step < 20000; step++ {
		switch r.IntN(12) {
		case 0:
			if clears < 8 { // enough to cross the wrap, not enough to thrash
				v.Clear()
				ref = make(map[uint32]bool)
				clears++
			}
		case 1, 2:
			v.StepClear(r.IntN(4))
		case 3, 4, 5:
			i := r.Uint32() % nbits
			v.Set(i)
			ref[i] = true
		case 6:
			g := scatteredGroup(r, nbits, 1+r.IntN(6))
			v.SetAll(g)
			for _, i := range g {
				ref[i] = true
			}
		default:
			g := alignedGroup(r, nbits, 1+r.IntN(6))
			v.SetAligned(g)
			for _, i := range g {
				ref[i] = true
			}
		}
		if v.OnesCount() != len(ref) {
			t.Fatalf("step %d: OnesCount %d, reference %d", step, v.OnesCount(), len(ref))
		}
		if got, want := v.Utilization(), float64(len(ref))/float64(nbits); got != want {
			t.Fatalf("step %d: Utilization %g, want %g", step, got, want)
		}
		// Spot-check membership both ways.
		i := r.Uint32() % nbits
		if v.Get(i) != ref[i] {
			t.Fatalf("step %d: Get(%d) = %v, reference %v", step, i, v.Get(i), ref[i])
		}
	}
	if clears < 4 {
		t.Fatalf("only %d clears; epoch wrap not exercised", clears)
	}
}

// TestTouchIsPure: Touch must not change any observable state — it
// exists only to warm cache lines for batch pass A.
func TestTouchIsPure(t *testing.T) {
	const nbits = 1 << 12
	r := rand.New(rand.NewPCG(3, 5))
	v, w := New(nbits), New(nbits)
	for i := 0; i < 200; i++ {
		n := r.Uint32() % nbits
		v.Set(n)
		w.Set(n)
	}
	v.Clear()
	w.Clear()
	for i := 0; i < 100; i++ {
		n := r.Uint32() % nbits
		v.Set(n)
		w.Set(n)
	}
	for i := uint32(0); i < nbits; i++ {
		v.Touch(i) // including bits in blocks still stale from Clear
	}
	if !v.Equal(w) || v.OnesCount() != w.OnesCount() {
		t.Fatal("Touch changed observable state")
	}
	for i := uint32(0); i < nbits; i++ {
		if v.Get(i) != w.Get(i) {
			t.Fatalf("Touch changed bit %d", i)
		}
	}
}

// scatteredGroup draws m indexes anywhere in an nbits-bit vector, the
// classic layout's groups that SetAll marks.
func scatteredGroup(r *rand.Rand, nbits uint, m int) []uint32 {
	idx := make([]uint32, m)
	for i := range idx {
		idx[i] = r.Uint32() % uint32(nbits)
	}
	return idx
}

// TestSetAllMatchesSet: SetAll is a pure optimization of the per-bit
// Set loop. Through clears, partial sweeps, syncs and a uint64 epoch
// wrap, a vector marked by SetAll must hold the same words, stamps,
// ones count and dirty blocks — the blocks the next Sync visits — as a
// second vector marked one Set at a time.
func TestSetAllMatchesSet(t *testing.T) {
	const nbits = 1 << 13
	r := rand.New(rand.NewPCG(5, 17))
	a, b := New(nbits), New(nbits)
	for _, v := range []*Vector{a, b} {
		v.epoch = ^uint64(0) - 2
		v.sweep = 0
	}
	imgA, imgB := make([]uint64, len(a.words)), make([]uint64, len(b.words))
	var markA, markB SyncMark
	clears := 0
	for step := 0; step < 5000; step++ {
		switch r.IntN(12) {
		case 0: // an occasional logical clear on both
			if r.IntN(8) == 0 {
				a.Clear()
				b.Clear()
				clears++
			}
		case 1, 2: // partial deferred sweep on both
			n := r.IntN(3)
			a.StepClear(n)
			b.StepClear(n)
		case 3: // a sync consumes the dirty bits of both
			if err := a.Sync(imgA, &markA); err != nil {
				t.Fatal(err)
			}
			if err := b.Sync(imgB, &markB); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(imgA, imgB) {
				t.Fatalf("step %d: synced images differ", step)
			}
		default:
			g := scatteredGroup(r, nbits, 1+r.IntN(8))
			if r.IntN(4) == 0 {
				g = append(g, g[0]) // a repeated index sets nothing twice
			}
			a.SetAll(g)
			for _, i := range g {
				b.Set(i)
			}
		}
		switch {
		case a.OnesCount() != b.OnesCount():
			t.Fatalf("step %d: SetAll ones %d, Set ones %d", step, a.OnesCount(), b.OnesCount())
		case !slices.Equal(a.words, b.words):
			t.Fatalf("step %d: words differ", step)
		case !slices.Equal(a.blockEpoch, b.blockEpoch):
			t.Fatalf("step %d: clear stamps differ", step)
		case !slices.Equal(a.dirty, b.dirty):
			t.Fatalf("step %d: dirty blocks differ", step)
		}
	}
	if clears < 4 {
		t.Fatalf("only %d clears; epoch wrap not exercised", clears)
	}
	if !a.Equal(b) {
		t.Fatal("SetAll and Set vectors diverged")
	}
}
