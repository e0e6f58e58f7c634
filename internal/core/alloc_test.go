package core

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/hashes"
)

// replayStep drives one seeded traffic step against f and returns the
// verdict (or 0 for an outbound mark step). Both filters in a
// differential pair must be fed from identically-seeded rngs.
func replayStep(f *Filter, rng *rand.Rand, now time.Duration) Verdict {
	pair := pairN(uint32(rng.IntN(4096)))
	f.Advance(now)
	if rng.IntN(3) == 0 {
		f.Process(outPkt(now, pair), 0)
		return 0
	}
	return f.Process(inPkt(now, pair), 0.5)
}

// TestArenaFilterMatchesHeapFilter pins that a filter whose vectors are
// carved from a bitvec.Arena is verdict-for-verdict identical to a
// plain New filter.
func TestArenaFilterMatchesHeapFilter(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 42
	arena := bitvec.NewArena(1<<cfg.NBits, 64)
	af, err := NewWith(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewPCG(7, 9))
	rngB := rand.New(rand.NewPCG(7, 9))
	var now time.Duration
	for i := 0; i < 50_000; i++ {
		now += time.Duration(rngA.IntN(3000)) * time.Microsecond
		rngB.IntN(3000)
		va := replayStep(af, rngA, now)
		vb := replayStep(hf, rngB, now)
		if va != vb {
			t.Fatalf("step %d: arena verdict %v, heap verdict %v", i, va, vb)
		}
	}
	if af.Stats() != hf.Stats() {
		t.Fatalf("stats diverged: arena %+v, heap %+v", af.Stats(), hf.Stats())
	}
}

// TestSuspendResumeVerdictExact pins the BMTM restore loop: a v2
// snapshot read back with ReadFilter, plus RotationState and RNGState,
// restores a filter whose subsequent verdicts and stats deltas are
// bit-identical to the filter that never stopped.
func TestSuspendResumeVerdictExact(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 99
	cont, err := New(cfg) // never suspended
	if err != nil {
		t.Fatal(err)
	}
	live, err := New(cfg) // suspended/resumed every epoch below
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewPCG(3, 5))
	rngB := rand.New(rand.NewPCG(3, 5))
	var now time.Duration
	for epoch := 0; epoch < 8; epoch++ {
		for i := 0; i < 5_000; i++ {
			now += time.Duration(rngA.IntN(2500)) * time.Microsecond
			rngB.IntN(2500)
			va := replayStep(cont, rngA, now)
			vb := replayStep(live, rngB, now)
			if va != vb {
				t.Fatalf("epoch %d step %d: verdicts diverged (%v vs %v)", epoch, i, va, vb)
			}
		}
		// Suspend: snapshot bitmap + temporal + rng state, then rebuild
		// from the snapshot.
		var buf bytes.Buffer
		if _, err := live.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		rot := live.RotationState()
		rngState, err := live.RNGState()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ReadFilter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.SetRotationState(rot); err != nil {
			t.Fatal(err)
		}
		if err := resumed.SetRNGState(rngState); err != nil {
			t.Fatal(err)
		}
		live = resumed
	}
	// Counters are not part of the spill (the limiter folds them); only
	// compare verdict-visible rotation state.
	if cont.RotationState() != live.RotationState() {
		t.Fatalf("rotation state diverged: %+v vs %+v", cont.RotationState(), live.RotationState())
	}
}

// TestSpillWordsResumeVerdictExact pins the raw-word suspend loop a
// tenant manager runs: SpillWords + RotationState + RNGState, then
// Reset of a pooled shell that served another filter, LoadWords and
// the two setters, continues bit-identically to a filter that never
// stopped. At every suspension AppendSnapshot renders the spilled
// words to exactly the bytes WriteTo writes for the live filter, with
// deferred clears still pending.
func TestSpillWordsResumeVerdictExact(t *testing.T) {
	for _, layout := range []hashes.Layout{hashes.LayoutClassic, hashes.LayoutBlocked} {
		cfg := testConfig()
		cfg.Layout = layout
		cfg.Seed = 99
		cont, err := New(cfg) // never suspended
		if err != nil {
			t.Fatal(err)
		}
		arena := bitvec.NewArena(1<<cfg.NBits, 64)
		live, err := NewWith(cfg, arena)
		if err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Seed = 7
		shell, err := NewWith(other, arena) // another tenant's filter
		if err != nil {
			t.Fatal(err)
		}
		rngA := rand.New(rand.NewPCG(3, 5))
		rngB := rand.New(rand.NewPCG(3, 5))
		rngC := rand.New(rand.NewPCG(8, 1))
		words := make([]uint64, live.Words())
		var now time.Duration
		for epoch := 0; epoch < 8; epoch++ {
			for i := 0; i < 5_000; i++ {
				now += time.Duration(rngA.IntN(2500)) * time.Microsecond
				rngB.IntN(2500)
				va := replayStep(cont, rngA, now)
				vb := replayStep(live, rngB, now)
				if va != vb {
					t.Fatalf("%v epoch %d step %d: verdicts diverged (%v vs %v)", layout, epoch, i, va, vb)
				}
				replayStep(shell, rngC, now)
			}
			var want bytes.Buffer
			if _, err := live.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			live.SpillWords(words)
			rot := live.RotationState()
			rng, err := live.RNGState()
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendSnapshot(nil, live.Config(), rot, words); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%v epoch %d: AppendSnapshot differs from WriteTo", layout, epoch)
			}
			// Swap roles: the suspended filter's shell serves the other
			// tenant next, and the other's shell resumes this one.
			live, shell = shell, live
			live.Reset(cfg.Seed)
			live.LoadWords(words)
			if err := live.SetRotationState(rot); err != nil {
				t.Fatal(err)
			}
			if err := live.SetRNGState(rng); err != nil {
				t.Fatal(err)
			}
			if live.Stats() != (Stats{}) {
				t.Fatalf("reset shell kept counters: %+v", live.Stats())
			}
		}
		if cont.RotationState() != live.RotationState() {
			t.Fatalf("rotation state diverged: %+v vs %+v", cont.RotationState(), live.RotationState())
		}
	}
}

// TestEmptyReportsLogicalZero pins that Empty tracks logical contents
// through lazy clears.
func TestEmptyReportsLogicalZero(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Empty() {
		t.Fatal("fresh filter not Empty")
	}
	f.Advance(0)
	f.Process(outPkt(0, pairN(1)), 0)
	if f.Empty() {
		t.Fatal("marked filter reports Empty")
	}
	// K due rotations wipe every vector logically; Empty must see that
	// without waiting for the physical sweep.
	f.Advance(time.Duration(f.cfg.K+1) * f.cfg.DeltaT)
	if !f.Empty() {
		t.Fatal("fully rotated filter not Empty")
	}
}

// TestRotationStateValidation pins the index range check.
func TestRotationStateValidation(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetRotationState(RotationState{Index: f.cfg.K}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := f.SetRotationState(RotationState{Index: -1}); err == nil {
		t.Fatal("negative index accepted")
	}
}
