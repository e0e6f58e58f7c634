package offload

import (
	"bytes"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// checkSectionExact fails unless section s holds exactly f's state:
// rotation count, current index, and every word of every vector equal
// to the filter's logical contents (deferred clears read as zero).
func checkSectionExact(t *testing.T, s *Section, f *core.Filter, what string) {
	t.Helper()
	m := s.m
	if got := atomic.LoadUint64(&m.words[s.base+secRotations]); got != uint64(f.Rotations()) {
		t.Fatalf("%s: section rotations %d, filter %d", what, got, f.Rotations())
	}
	if got := atomic.LoadUint64(&m.words[s.base+secCurIdx]); got != uint64(f.Index()) {
		t.Fatalf("%s: section index %d, filter %d", what, got, f.Index())
	}
	var want [bitvec.DeltaBlockWords]uint64
	for i := 0; i < f.VectorCount(); i++ {
		v := f.Vector(i)
		vec := s.base + sectionHeaderWords + i*m.wordsPerVec
		for b := 0; b < v.DeltaBlocks(); b++ {
			if err := v.BlockWords(uint32(b), &want); err != nil {
				t.Fatal(err)
			}
			lo := b * bitvec.DeltaBlockWords
			for j := 0; j < bitvec.DeltaBlockWords && lo+j < m.wordsPerVec; j++ {
				if got := atomic.LoadUint64(&m.words[vec+lo+j]); got != want[j] {
					t.Fatalf("%s: vector %d word %d: section %#x, filter %#x", what, i, lo+j, got, want[j])
				}
			}
		}
	}
}

// TestPublishExact drives a filter through a seeded random mix of every
// event that changes its vectors, publishing into two maps in random
// turns, and requires each section to equal the filter's logical
// contents after every Publish. The events:
//
//   - outbound marks and inbound lookups through Filter.Process, whose
//     deferred-clear sweep leaves some cleared blocks swept and some
//     not at publish time;
//   - rotations, and idle gaps of k·Δt or more that clear every vector;
//   - a filter swapped in from its snapshot, as Limiter.RestoreState
//     does;
//   - an evict/rehydrate cycle onto recycled arena vectors, as the
//     tenant manager does;
//   - a MergeBlock into a live vector, as a fleet replica does.
//
// The maps share the filter, so each publish into one invalidates the
// other's dirty-block state. The front ends themselves are driven in
// the root package's TestOffloadPublishExactFrontEnds.
func TestPublishExact(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for name, cfg := range map[string]core.Config{
		"classic": {K: 4, NBits: 14, M: 3, DeltaT: time.Second, Seed: 1},
		"blocked": {K: 4, NBits: 14, M: 3, DeltaT: time.Second, Seed: 1,
			Layout: hashes.LayoutBlocked},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(cfg.Layout), 20))
			arena := bitvec.NewArena(1<<cfg.NBits, 4)
			f, err := core.NewWith(cfg, arena)
			if err != nil {
				t.Fatal(err)
			}
			var maps [2]*Map
			for i := range maps {
				if maps[i], err = NewMap(GeometryOf(cfg), 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			onArena := true // f's vectors were carved from arena
			pairs := testPairs(2048)
			var ts time.Duration
			for step := 0; step < steps; step++ {
				switch op := rng.IntN(100); {
				case op < 55:
					p := packet.Packet{TS: ts, Pair: pairs[rng.IntN(len(pairs))], Dir: packet.Outbound}
					if op >= 45 {
						p.Pair, p.Dir = p.Pair.Inverse(), packet.Inbound
					}
					f.Advance(ts)
					f.Process(&p, 0)
				case op < 65:
					ts += time.Duration(rng.Int64N(int64(cfg.DeltaT)))
				case op < 66:
					ts += time.Duration(cfg.K+rng.IntN(3)) * cfg.DeltaT
				case op < 67:
					f = restoreSnapshot(t, f, nil, nil)
					onArena = false
				case op < 68:
					release := arena
					if !onArena {
						release = nil
					}
					f = restoreSnapshot(t, f, release, arena)
					onArena = true
				case op < 70:
					v := f.Vector(rng.IntN(cfg.K))
					var blk [bitvec.DeltaBlockWords]uint64
					blk[rng.IntN(len(blk))] = 1 << rng.IntN(64)
					if _, err := v.MergeBlock(uint32(rng.IntN(v.DeltaBlocks())), &blk); err != nil {
						t.Fatal(err)
					}
				default:
					// Map 0 is the main consumer, so it runs long stretches
					// on the incremental path; map 1 interleaves.
					s := maps[0].Section(0)
					if rng.IntN(5) == 0 {
						s = maps[1].Section(0)
					}
					f.Advance(ts)
					if err := s.Publish(f); err != nil {
						t.Fatal(err)
					}
					checkSectionExact(t, s, f, "step "+strconv.Itoa(step))
				}
			}
		})
	}
}

// restoreSnapshot replaces f with a filter read back from its snapshot
// onto vectors from alloc (the heap when nil), carrying the rotation
// schedule over as a suspend/resume does. Releasing f's vectors to an
// arena first, as a tenant eviction does, makes the replacement reuse
// their spans.
func restoreSnapshot(t *testing.T, f *core.Filter, release, alloc *bitvec.Arena) *core.Filter {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rot := f.RotationState()
	if release != nil {
		if err := f.ReleaseVectors(release); err != nil {
			t.Fatal(err)
		}
	}
	var va core.VectorAllocator
	if alloc != nil {
		va = alloc
	}
	g, err := core.ReadFilterWith(&buf, va)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetRotationState(rot); err != nil {
		t.Fatal(err)
	}
	return g
}
