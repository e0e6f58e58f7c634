package bitvec

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestNewRoundsUpToPowerOfTwo(t *testing.T) {
	tests := []struct {
		in   uint
		want uint
	}{
		{1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128}, {100, 128},
		{1 << 20, 1 << 20}, {1<<20 + 1, 1 << 21},
	}
	for _, tt := range tests {
		if got := New(tt.in).Len(); got != tt.want {
			t.Errorf("New(%d).Len() = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestSetGet(t *testing.T) {
	v := New(128)
	for _, i := range []uint32{0, 1, 63, 64, 127} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.OnesCount(); got != 5 {
		t.Fatalf("OnesCount = %d, want 5", got)
	}
}

func TestSetWrapsWithMask(t *testing.T) {
	v := New(128)
	v.Set(128) // wraps to 0: 128 & 127 == 0
	if !v.Get(0) {
		t.Fatal("Set(128) on a 128-bit vector should set bit 0")
	}
	v.Set(261) // wraps to 5
	if !v.Get(133) {
		t.Fatal("Get must wrap the same way as Set")
	}
}

func TestClear(t *testing.T) {
	v := New(512)
	for i := uint32(0); i < 512; i += 3 {
		v.Set(i)
	}
	if v.OnesCount() == 0 {
		t.Fatal("nothing set")
	}
	v.Clear()
	if got := v.OnesCount(); got != 0 {
		t.Fatalf("OnesCount after Clear = %d", got)
	}
	for i := uint32(0); i < 512; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d readable after Clear", i)
		}
	}
}

func TestUtilization(t *testing.T) {
	v := New(128)
	for i := uint32(0); i < 32; i++ {
		v.Set(i)
	}
	if got := v.Utilization(); got != 0.25 {
		t.Fatalf("Utilization = %g, want 0.25", got)
	}
}

func TestBytes(t *testing.T) {
	tests := []struct {
		bits uint
		want int
	}{
		{1, 8},
		{64, 8},
		{65, 16},
		{1 << 20, 1 << 17},
	}
	for _, tt := range tests {
		if got := New(tt.bits).Bytes(); got != tt.want {
			t.Errorf("New(%d).Bytes() = %d, want %d", tt.bits, got, tt.want)
		}
	}
}

func TestLoadWordsAndEqual(t *testing.T) {
	a := New(256)
	b := New(256)
	a.Set(17)
	a.Set(200)
	if a.Equal(b) {
		t.Fatal("different vectors reported equal")
	}
	words := make([]uint64, len(a.words))
	a.CopyWords(words)
	b.LoadWords(words)
	if !a.Equal(b) {
		t.Fatal("loaded vector differs from its source")
	}
	if b.OnesCount() != 2 {
		t.Fatalf("OnesCount = %d, want 2", b.OnesCount())
	}
	c := New(128)
	if a.Equal(c) {
		t.Fatal("vectors of different sizes reported equal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWords with size mismatch did not panic")
		}
	}()
	c.LoadWords(words)
}

// TestCopyWordsPendingClear spills a vector whose Clear is still
// deferred into one that is also mid-clear: neither vector's stale
// blocks may leak through.
func TestCopyWordsPendingClear(t *testing.T) {
	src := New(1 << 15)
	src.Set(3)
	src.Clear() // deferred
	src.Set(9)
	dst := New(1 << 15)
	dst.Set(100)
	dst.Clear() // dst also mid-clear
	words := make([]uint64, len(src.words))
	src.CopyWords(words)
	dst.LoadWords(words)
	if dst.Get(3) || dst.Get(100) || !dst.Get(9) {
		t.Fatalf("CopyWords/LoadWords ignored deferred clears: Get(3)=%v Get(100)=%v Get(9)=%v",
			dst.Get(3), dst.Get(100), dst.Get(9))
	}
	if dst.OnesCount() != 1 {
		t.Fatalf("OnesCount = %d, want 1", dst.OnesCount())
	}
}

func TestString(t *testing.T) {
	v := New(64)
	v.Set(3)
	if got := v.String(); got != "bitvec(64 bits, 1 set)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestLazyClearSemantics pins the deferred-clear contract: after Clear,
// every read observes zero regardless of sweep progress; Set in a stale
// block never resurrects old-epoch bits; StepClear advances the
// watermark in bounded block units.
func TestLazyClearSemantics(t *testing.T) {
	const n = 1 << 16 // 1024 words = 16 blocks
	v := New(n)
	for i := uint32(0); i < n; i += 7 {
		v.Set(i)
	}
	v.Clear()

	// Reads above the watermark are treated as zero.
	for i := uint32(0); i < n; i += 7 {
		if v.Get(i) {
			t.Fatalf("bit %d visible after Clear before sweep", i)
		}
	}

	// A Set into a stale block freshens exactly that block and must not
	// bring back neighbors from the old epoch.
	v.Set(7) // block 0 held many old-epoch bits
	if !v.Get(7) {
		t.Fatal("Set after Clear lost the new bit")
	}
	if v.Get(14) {
		t.Fatal("Set after Clear resurrected an old-epoch neighbor")
	}
	if v.OnesCount() != 1 {
		t.Fatalf("OnesCount = %d, want 1", v.OnesCount())
	}

	// Chunked sweep: drive the watermark one block at a time.
	steps := 0
	for !v.StepClear(1) {
		steps++
		if steps > 1024 {
			t.Fatal("StepClear never completed")
		}
	}
	if v.OnesCount() != 1 || !v.Get(7) {
		t.Fatal("sweep destroyed the new-epoch bit")
	}
	// After a full sweep the physical words match the logical state.
	for i := uint32(0); i < n; i++ {
		want := i == 7
		if v.Get(i) != want {
			t.Fatalf("Get(%d) = %v after sweep", i, v.Get(i))
		}
	}
}

// TestClearDuringSweep interleaves a second Clear into an unfinished
// sweep; the restart must still observe all-zero.
func TestClearDuringSweep(t *testing.T) {
	const n = 1 << 16
	v := New(n)
	for i := uint32(0); i < n; i += 3 {
		v.Set(i)
	}
	v.Clear()
	v.StepClear(2) // partial
	v.Set(50_000)
	v.Clear() // clear again mid-sweep
	for i := uint32(0); i < n; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d visible after second Clear", i)
		}
	}
	if v.OnesCount() != 0 {
		t.Fatalf("OnesCount = %d after second Clear", v.OnesCount())
	}
	for !v.StepClear(4) {
	}
	if v.OnesCount() != 0 {
		t.Fatal("sweep after double Clear exposed bits")
	}
}

// TestOnesCountMatchesSetCardinality property: setting any set of bit
// indices yields OnesCount equal to the number of distinct (wrapped)
// positions.
func TestOnesCountMatchesSetCardinality(t *testing.T) {
	f := func(indices []uint32) bool {
		const n = 4096
		v := New(n)
		distinct := make(map[uint32]struct{}, len(indices))
		for _, i := range indices {
			v.Set(i)
			distinct[i%n] = struct{}{}
		}
		return v.OnesCount() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGetOnlySetBits property: bits never set must read zero.
func TestGetOnlySetBits(t *testing.T) {
	f := func(set []uint32, probe uint32) bool {
		const n = 1 << 14
		v := New(n)
		want := false
		for _, i := range set {
			v.Set(i)
			if i%n == probe%n {
				want = true
			}
		}
		return v.Get(probe) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLazyClearAgainstReference drives a random op sequence through the
// vector and a map-based reference model, with Clear/StepClear
// interleaved at arbitrary points.
func TestLazyClearAgainstReference(t *testing.T) {
	f := func(ops []uint32) bool {
		const n = 1 << 13
		v := New(n)
		ref := make(map[uint32]bool)
		for _, op := range ops {
			i := op % n
			switch op % 11 {
			case 0:
				v.Clear()
				ref = make(map[uint32]bool)
			case 1:
				v.StepClear(int(op%3) + 1)
			default:
				if op%2 == 0 {
					v.Set(i)
					ref[i] = true
				} else if v.Get(i) != ref[i] {
					return false
				}
			}
			if v.OnesCount() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
