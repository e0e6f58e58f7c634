package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzReadFilter feeds arbitrary bytes to the snapshot reader. The
// contract: ReadFilter must error or succeed — never panic, never
// allocate unboundedly (the geometry caps), and a filter it does return
// must survive subsequent operation. Run with
// `go test -fuzz FuzzReadFilter ./internal/core`.
func FuzzReadFilter(f *testing.F) {
	// Seeds: a valid snapshot, the retired version-1 form of the same
	// filter (which must now be rejected), and mutations.
	src, err := New(Config{K: 2, NBits: 10, M: 2, DeltaT: time.Second, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	src.Advance(0)
	for i := uint32(0); i < 100; i++ {
		src.Process(outPkt(time.Duration(i)*time.Millisecond, pairN(i)), 1)
	}
	var v2 bytes.Buffer
	if _, err := src.WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1Snapshot(f, src, v2.Bytes()))
	f.Add(v2.Bytes()[:40])
	f.Add(v2.Bytes()[:80])
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[60] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		filter, err := ReadFilter(bytes.NewReader(data))
		if err != nil {
			if filter != nil {
				t.Fatal("ReadFilter returned both a filter and an error")
			}
			// Typed-rejection contract: the sentinels are mutually
			// exclusive — an error never claims two causes.
			matched := 0
			for _, s := range []error{ErrSnapshotMagic, ErrSnapshotVersion, ErrSnapshotGeometry, ErrSnapshotCorrupt, ErrSnapshotChecksum} {
				if errors.Is(err, s) {
					matched++
				}
			}
			if matched > 1 {
				t.Fatalf("rejection %v matches %d sentinels", err, matched)
			}
			return
		}
		// A filter the reader vouched for must hold up under use: advance
		// through several rotations, mark and look up flows, and keep the
		// accounting invariant.
		for i := uint32(0); i < 64; i++ {
			ts := time.Duration(i) * filter.Config().DeltaT / 4
			filter.Advance(ts)
			filter.Process(outPkt(ts, pairN(i)), 0.5)
			filter.Process(inPkt(ts, pairN(i)), 0.5)
		}
		s := filter.Stats()
		if s.InboundHits+s.InboundMisses != s.InboundPackets {
			t.Fatalf("restored filter broke invariant: %d + %d != %d",
				s.InboundHits, s.InboundMisses, s.InboundPackets)
		}
	})
}
