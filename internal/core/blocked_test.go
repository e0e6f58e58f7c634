package core

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// TestBlockedNeverFalseNegative replays a synthetic trace through a
// classic-layout and a blocked-layout filter side by side, with an exact
// per-pair timer model as ground truth and P_d pinned to 1 so every
// unmatched inbound packet is dropped deterministically. The contract:
// the blocked layout may shift which *false positives* occur (different
// indexes), but it must never introduce a false negative — an inbound
// packet whose flow is younger than the retention floor (k−1)·Δt passes
// in both layouts, on the full trace replay.
func TestBlockedNeverFalseNegative(t *testing.T) {
	const (
		k      = 4
		deltaT = 2 * time.Second
		floor  = time.Duration(k-1) * deltaT
	)
	newFilter := func(layout hashes.Layout) *Filter {
		f, err := New(Config{K: k, NBits: 18, M: 3, DeltaT: deltaT, Seed: 5, Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		f.Advance(0)
		return f
	}
	classic := newFilter(hashes.LayoutClassic)
	blocked := newFilter(hashes.LayoutBlocked)

	rng := rand.New(rand.NewPCG(21, 34))
	lastOut := make(map[packet.SocketPair]time.Duration)
	var now time.Duration
	inFloor := 0
	for step := 0; step < 150_000; step++ {
		now += time.Duration(rng.IntN(1500)) * time.Microsecond
		pair := pairN(uint32(rng.IntN(4096)))
		if rng.IntN(2) == 0 {
			out := outPkt(now, pair)
			classic.Advance(now)
			blocked.Advance(now)
			if classic.Process(out, 1) != Pass || blocked.Process(out, 1) != Pass {
				t.Fatalf("step %d: outbound packet not passed", step)
			}
			lastOut[pair] = now
			continue
		}
		in := inPkt(now, pair)
		classic.Advance(now)
		blocked.Advance(now)
		cv := classic.Process(in, 1)
		bv := blocked.Process(in, 1)
		if t0, seen := lastOut[pair]; seen && now-t0 <= floor {
			inFloor++
			if cv != Pass {
				t.Fatalf("step %d: classic false negative at age %v", step, now-t0)
			}
			if bv != Pass {
				t.Fatalf("step %d: blocked false negative at age %v", step, now-t0)
			}
		}
	}
	if inFloor < 1000 {
		t.Fatalf("only %d within-floor inbound checks; trace too sparse to be meaningful", inFloor)
	}
}

// TestProcessBatchMatchesSequentialLayouts: the two-pass batch path
// must be verdict- and counter-identical to feeding the same packets
// through Process one at a time — for both layouts, including the P_d
// random draws (same seed, same draw order), across randomized batch
// boundaries.
func TestProcessBatchMatchesSequentialLayouts(t *testing.T) {
	for _, layout := range []hashes.Layout{hashes.LayoutClassic, hashes.LayoutBlocked} {
		t.Run(layout.String(), func(t *testing.T) {
			cfg := Config{K: 3, NBits: 14, M: 4, DeltaT: time.Second, Seed: 77, Layout: layout}
			batchF, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seqF, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewPCG(13, 17))
			var now time.Duration
			pkts := make([]packet.Packet, 0, 5000)
			for i := 0; i < cap(pkts); i++ {
				now += time.Duration(rng.IntN(800)) * time.Microsecond
				pair := pairN(uint32(rng.IntN(512)))
				if rng.IntN(2) == 0 {
					pkts = append(pkts, *outPkt(now, pair))
				} else {
					pkts = append(pkts, *inPkt(now, pair))
				}
			}

			const pd = 0.5
			batchF.Advance(0)
			seqF.Advance(0)
			// Odd batch sizes force every chunk-boundary case, including
			// batches larger than, equal to, and smaller than BatchChunk.
			got := make([]Verdict, 0, len(pkts))
			for lo := 0; lo < len(pkts); {
				n := 1 + rng.IntN(3*BatchChunk)
				if lo+n > len(pkts) {
					n = len(pkts) - lo
				}
				got = batchF.ProcessBatch(pkts[lo:lo+n], pd, got)
				lo += n
			}
			for i := range pkts {
				seqF.Advance(pkts[i].TS)
				want := seqF.Process(&pkts[i], pd)
				if got[i] != want {
					t.Fatalf("packet %d (%v): batch %v, sequential %v", i, pkts[i].Dir, got[i], want)
				}
			}
			if bs, ss := batchF.Stats(), seqF.Stats(); bs != ss {
				t.Fatalf("stats diverge: batch %+v, sequential %+v", bs, ss)
			}
			if batchF.Utilization() != seqF.Utilization() {
				t.Fatalf("utilization diverges: %g vs %g", batchF.Utilization(), seqF.Utilization())
			}
		})
	}
}

// TestHashBatchTouchSafeAcrossRotation: pass A's prefetch touches are
// advisory — hashing a chunk, rotating the filter, then deciding the
// chunk must equal deciding after rotation with fresh hashes, because
// index derivation is independent of rotation state.
func TestHashBatchTouchSafeAcrossRotation(t *testing.T) {
	cfg := Config{K: 3, NBits: 12, M: 3, DeltaT: time.Second, Seed: 3, Layout: hashes.LayoutBlocked}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(0)
	g.Advance(0)
	pkts := make([]packet.Packet, BatchChunk)
	for i := range pkts {
		pkts[i] = *outPkt(0, pairN(uint32(i)))
	}
	// f: hash before the rotation, decide after.
	n := f.HashBatch(pkts)
	if n != BatchChunk {
		t.Fatalf("HashBatch took %d packets, want %d", n, BatchChunk)
	}
	rot := 2500 * time.Millisecond // crosses two rotation boundaries
	f.Advance(rot)
	g.Advance(rot)
	for i := range pkts {
		pkts[i].TS = rot
		fv := f.ProcessSums(&pkts[i], f.Hashed(i), 1)
		gv := g.Process(&pkts[i], 1)
		if fv != gv {
			t.Fatalf("packet %d: hashed-before-rotation verdict %v, fresh verdict %v", i, fv, gv)
		}
	}
	if !filtersEqual(f, g) {
		t.Fatal("filter state diverged after cross-rotation batch")
	}
}

// filtersEqual compares the serialized state of two filters.
func filtersEqual(a, b *Filter) bool {
	var ab, bb bytes.Buffer
	if _, err := a.WriteTo(&ab); err != nil {
		return false
	}
	if _, err := b.WriteTo(&bb); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// TestSnapshotRoundTripBlocked: a blocked-geometry filter must survive
// the snapshot round trip with its scheme/layout intact and agree with
// the original on arbitrary lookups.
func TestSnapshotRoundTripBlocked(t *testing.T) {
	cfg := Config{K: 3, NBits: 14, M: 2, DeltaT: 2 * time.Second, Seed: 9, Layout: hashes.LayoutBlocked}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(0)
	for i := uint32(0); i < 500; i++ {
		f.Process(outPkt(time.Duration(i)*10*time.Millisecond, pairN(i)), 1)
		f.Advance(time.Duration(i) * 10 * time.Millisecond)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFilter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.HashScheme() != hashes.SchemeOneShot || restored.Layout() != hashes.LayoutBlocked {
		t.Fatalf("restored scheme/layout = %v/%v, want one-shot/blocked", restored.HashScheme(), restored.Layout())
	}
	for i := uint32(0); i < 2000; i++ {
		pair := pairN(i).Inverse()
		if f.Contains(pair) != restored.Contains(pair) {
			t.Fatalf("lookup %d diverges after blocked restore", i)
		}
	}
}

// TestSnapshotRejectsCorruptSchemeLayout: header bytes 34/35 are
// validated through ResolveSchemeLayout, so a snapshot claiming an
// unknown scheme or an impossible combination is rejected instead of
// silently defaulting.
func TestSnapshotRejectsCorruptSchemeLayout(t *testing.T) {
	f, err := New(Config{K: 2, NBits: 10, M: 2, DeltaT: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := func(scheme, layout byte) error {
		b := append([]byte(nil), buf.Bytes()...)
		b[34], b[35] = scheme, layout
		_, err := ReadFilter(bytes.NewReader(b))
		return err
	}
	if err := corrupt(99, 1); err == nil {
		t.Fatal("unknown scheme byte accepted")
	}
	if err := corrupt(1, 99); err == nil {
		t.Fatal("unknown layout byte accepted")
	}
	if err := corrupt(byte(hashes.SchemePerIndex), byte(hashes.LayoutBlocked)); err == nil {
		t.Fatal("per-index + blocked combination accepted")
	}
}
