package bitvec

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// collectDiff gathers DiffBlocks output into a map for assertions.
func collectDiff(t *testing.T, v, base *Vector) map[uint32][DeltaBlockWords]uint64 {
	t.Helper()
	out := make(map[uint32][DeltaBlockWords]uint64)
	err := v.DiffBlocks(base, func(blk uint32, xor *[DeltaBlockWords]uint64) {
		out[blk] = *xor
	})
	if err != nil {
		t.Fatalf("DiffBlocks: %v", err)
	}
	return out
}

func TestDiffMergeRoundTrip(t *testing.T) {
	for _, nbits := range []uint{2, 64, 512, 4096, 1 << 14} {
		src := New(nbits)
		dst := New(nbits)
		rng := rand.New(rand.NewPCG(uint64(nbits), 7))
		for i := 0; i < int(nbits)/3+1; i++ {
			src.Set(uint32(rng.Uint64()))
		}
		n := 0
		err := src.DiffBlocks(nil, func(blk uint32, xor *[DeltaBlockWords]uint64) {
			added, err := dst.MergeBlock(blk, xor)
			if err != nil {
				t.Fatalf("nbits=%d MergeBlock(%d): %v", nbits, blk, err)
			}
			n += added
		})
		if err != nil {
			t.Fatalf("nbits=%d DiffBlocks: %v", nbits, err)
		}
		if n != src.OnesCount() {
			t.Fatalf("nbits=%d merged %d bits, want %d", nbits, n, src.OnesCount())
		}
		if !dst.Equal(src) {
			t.Fatalf("nbits=%d merge of full diff did not reproduce source", nbits)
		}
		if len(collectDiff(t, src, dst)) != 0 {
			t.Fatalf("nbits=%d equal vectors still diff", nbits)
		}
	}
}

// TestDiffAgainstSubsetIsNewBits pins the replication invariant: when
// base is a subset (the acked shadow), the XOR diff is exactly the
// newly set bits, so an OR-merge of the diff is a lossless catch-up.
func TestDiffAgainstSubsetIsNewBits(t *testing.T) {
	cur := New(1 << 12)
	base := New(1 << 12)
	for i := uint32(0); i < 300; i += 3 {
		cur.Set(i * 41)
		base.Set(i * 41)
	}
	for i := uint32(0); i < 100; i++ {
		cur.Set(i*977 + 13)
	}
	peer := New(1 << 12)
	words := make([]uint64, len(base.words))
	base.CopyWords(words)
	peer.LoadWords(words)
	err := cur.DiffBlocks(base, func(blk uint32, xor *[DeltaBlockWords]uint64) {
		if _, err := peer.MergeBlock(blk, xor); err != nil {
			t.Fatalf("MergeBlock(%d): %v", blk, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !peer.Equal(cur) {
		t.Fatal("subset-baseline diff did not converge peer to source")
	}
}

// TestMergeUnderLazyClear proves a merge into a logically cleared (but
// not yet swept) vector cannot resurrect old-epoch bits.
func TestMergeUnderLazyClear(t *testing.T) {
	v := New(1 << 12)
	for i := uint32(0); i < 500; i++ {
		v.Set(i * 7)
	}
	v.Clear() // deferred: physical words still hold the old bits
	var blk [DeltaBlockWords]uint64
	blk[3] = 1 << 17
	added, err := v.MergeBlock(2, &blk)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || v.OnesCount() != 1 {
		t.Fatalf("added=%d ones=%d, want 1/1 (old-epoch bits resurrected?)", added, v.OnesCount())
	}
	if !v.Get(uint32(2*512 + 3*64 + 17)) {
		t.Fatal("merged bit not readable")
	}
}

func TestMergeBlockRejections(t *testing.T) {
	v := New(1 << 10) // 1024 bits = 16 words = 2 delta blocks
	var blk [DeltaBlockWords]uint64
	if _, err := v.MergeBlock(2, &blk); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("out-of-range block: err=%v, want ErrBlockRange", err)
	}
	small := New(2) // sub-word vector: 1 word, tail mask 0b11
	blk[0] = 0b100
	if _, err := small.MergeBlock(0, &blk); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("tail overflow: err=%v, want ErrBlockRange", err)
	}
	blk[0] = 0
	blk[1] = 1 // padding word beyond the 1-word vector
	if _, err := small.MergeBlock(0, &blk); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("padding overflow: err=%v, want ErrBlockRange", err)
	}
	if small.OnesCount() != 0 {
		t.Fatal("rejected merges mutated the vector")
	}
	big := New(128)
	if err := big.DiffBlocks(small, func(uint32, *[DeltaBlockWords]uint64) {}); err == nil {
		t.Fatal("size-mismatched diff accepted")
	}
}

func TestBlockWords(t *testing.T) {
	v := New(1 << 12)
	v.Set(512 + 65) // block 1, word 1, bit 1
	var got [DeltaBlockWords]uint64
	if err := v.BlockWords(1, &got); err != nil {
		t.Fatal(err)
	}
	if got[1] != 1<<1 {
		t.Fatalf("BlockWords read %#x, want %#x", got[1], uint64(1<<1))
	}
	v.Clear()
	if err := v.BlockWords(1, &got); err != nil {
		t.Fatal(err)
	}
	for i, w := range got {
		if w != 0 {
			t.Fatalf("word %d nonzero after Clear: %#x", i, w)
		}
	}
	if err := v.BlockWords(uint32(v.DeltaBlocks()), &got); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("out-of-range read: err=%v, want ErrBlockRange", err)
	}
}

func TestRangeDigestsReflectLogicalContents(t *testing.T) {
	a := New(1 << 13)
	b := New(1 << 13)
	for i := uint32(0); i < 400; i++ {
		a.Set(i * 31)
		b.Set(i * 31)
	}
	da := a.AppendRangeDigests(4, nil)
	db := b.AppendRangeDigests(4, nil)
	if want := a.RangeCount(4); len(da) != want {
		t.Fatalf("got %d digests, want %d", len(da), want)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("equal vectors disagree at range %d", i)
		}
	}
	// A deferred clear must change every digest to the all-zero ones,
	// even though the physical words still hold the old contents.
	b.Clear()
	zero := New(1<<13).AppendRangeDigests(4, nil)
	db = b.AppendRangeDigests(4, nil)
	for i := range db {
		if db[i] != zero[i] {
			t.Fatalf("cleared vector digest %d differs from empty vector", i)
		}
	}
	// Divergence is localized: flipping one bit changes exactly one range.
	b2 := New(1 << 13)
	b2.Set(4096 + 3)
	d2 := b2.AppendRangeDigests(4, nil)
	diff := 0
	for i := range d2 {
		if d2[i] != zero[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("single-bit divergence touched %d ranges, want 1", diff)
	}
}
