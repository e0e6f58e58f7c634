package bitvec

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// logicalWords returns the vector's logical contents without
// materializing deferred clears.
func logicalWords(v *Vector) []uint64 {
	out := make([]uint64, len(v.words))
	var blk [DeltaBlockWords]uint64
	for b := 0; b < v.DeltaBlocks(); b++ {
		if err := v.BlockWords(uint32(b), &blk); err != nil {
			panic(err)
		}
		lo, hi := v.blockSpan(b)
		copy(out[lo:hi], blk[:hi-lo])
	}
	return out
}

func requireImage(t *testing.T, what string, v *Vector, img []uint64) {
	t.Helper()
	for i, w := range logicalWords(v) {
		if img[i] != w {
			t.Fatalf("%s: word %d is %#x, vector holds %#x", what, i, img[i], w)
		}
	}
}

// TestSyncIncrementalTouchesOnlyDirtyBlocks pins the path selection: a
// matching mark compares only the blocks marked since the last sync, so
// a word corrupted in a clean block survives it, while a marked block
// is brought up to date.
func TestSyncIncrementalTouchesOnlyDirtyBlocks(t *testing.T) {
	v := New(1 << 14)
	img := make([]uint64, len(v.words))
	var mark SyncMark
	for i := uint32(0); i < 1<<14; i += 97 {
		v.Set(i)
	}
	if err := v.Sync(img, &mark); err != nil {
		t.Fatal(err)
	}
	requireImage(t, "first sync", v, img)

	img[0] ^= 1 << 63 // block 0, not marked below
	v.Set(1 << 13)    // word 128: block 16
	if err := v.Sync(img, &mark); err != nil {
		t.Fatal(err)
	}
	if img[128]&1 == 0 {
		t.Fatal("incremental sync missed a marked block")
	}
	if img[0] == v.words[0] {
		t.Fatal("incremental sync compared a block nothing marked")
	}
	// Re-marking a set bit flips nothing and leaves no dirty block.
	v.Set(1 << 13)
	for i, d := range v.dirty {
		if d != 0 {
			t.Fatalf("dirty word %d = %#x after a no-op Set", i, d)
		}
	}
}

// TestSyncFallsBackToFullCompare covers every event that invalidates
// the dirty bits: each must make the next sync repair a word corrupted
// in a block nothing marked.
func TestSyncFallsBackToFullCompare(t *testing.T) {
	cases := map[string]func(v *Vector, mark *SyncMark){
		"clear": func(v *Vector, _ *SyncMark) { v.Clear() },
		"copyfrom": func(v *Vector, _ *SyncMark) {
			src := New(v.Len())
			src.Set(5)
			if err := v.CopyFrom(src); err != nil {
				panic(err)
			}
		},
		"readfrom": func(v *Vector, _ *SyncMark) {
			src := New(v.Len())
			src.Set(77)
			var buf bytes.Buffer
			if _, err := src.WriteTo(&buf); err != nil {
				panic(err)
			}
			if _, err := v.ReadFrom(&buf); err != nil {
				panic(err)
			}
		},
		"other image": func(v *Vector, _ *SyncMark) {
			var other SyncMark
			if err := v.Sync(make([]uint64, len(v.words)), &other); err != nil {
				panic(err)
			}
		},
		"other vector": func(v *Vector, mark *SyncMark) {
			*mark = SyncMark{vec: New(v.Len()), epoch: v.epoch, syncs: v.syncs}
		},
	}
	for name, event := range cases {
		t.Run(name, func(t *testing.T) {
			v := New(1 << 12)
			img := make([]uint64, len(v.words))
			var mark SyncMark
			v.Set(3)
			v.Set(1 << 11)
			if err := v.Sync(img, &mark); err != nil {
				t.Fatal(err)
			}
			event(v, &mark)
			img[len(img)-1] = 0xdead // a block no event marks
			if err := v.Sync(img, &mark); err != nil {
				t.Fatal(err)
			}
			requireImage(t, name, v, img)
		})
	}
}

// TestSyncReadsStaleBlocksAsZero: after a Clear, blocks the deferred
// sweep has not reached sync as zero and stay unmaterialized, and a
// block freshened by a later Set syncs its new contents.
func TestSyncReadsStaleBlocksAsZero(t *testing.T) {
	v := New(1 << 14)
	img := make([]uint64, len(v.words))
	var mark SyncMark
	for i := uint32(0); i < 1<<14; i += 3 {
		v.Set(i)
	}
	if err := v.Sync(img, &mark); err != nil {
		t.Fatal(err)
	}
	v.Clear()
	v.StepClear(1)
	v.Set(1<<14 - 1) // freshens the last clear block
	if err := v.Sync(img, &mark); err != nil {
		t.Fatal(err)
	}
	requireImage(t, "after clear", v, img)
	for b := 1; b < len(v.blockEpoch)-1; b++ {
		if v.blockEpoch[b] == v.epoch {
			t.Fatalf("sync materialized stale clear block %d", b)
		}
	}
}

// TestSyncAgainstReference runs random marks, merges, clears and
// sweeps, syncing two images from the one vector in random turns, and
// checks the synced image after every sync.
func TestSyncAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	v := New(1 << 13)
	imgs := [2][]uint64{make([]uint64, len(v.words)), make([]uint64, len(v.words))}
	var marks [2]SyncMark
	for step := 0; step < 5000; step++ {
		switch op := rng.IntN(20); {
		case op < 10:
			v.Set(rng.Uint32())
		case op < 12:
			var blk [DeltaBlockWords]uint64
			blk[rng.IntN(DeltaBlockWords)] = rng.Uint64()
			if _, err := v.MergeBlock(uint32(rng.IntN(v.DeltaBlocks())), &blk); err != nil {
				t.Fatal(err)
			}
		case op < 13:
			v.Clear()
		case op < 15:
			v.StepClear(1)
		default:
			i := 0
			if rng.IntN(4) == 0 {
				i = 1
			}
			if err := v.Sync(imgs[i], &marks[i]); err != nil {
				t.Fatal(err)
			}
			requireImage(t, "step", v, imgs[i])
		}
	}
}

func TestSyncRejectsSizeMismatch(t *testing.T) {
	v := New(1 << 10)
	var mark SyncMark
	if err := v.Sync(make([]uint64, 3), &mark); err == nil {
		t.Fatal("sync into a short image succeeded")
	}
}
