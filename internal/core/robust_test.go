package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

// smallSnapshot returns a marked filter with a compact geometry and its
// version-2 snapshot bytes.
func smallSnapshot(t *testing.T) (*Filter, []byte) {
	t.Helper()
	f, err := New(Config{K: 2, NBits: 10, M: 2, DeltaT: time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(0)
	for i := uint32(0); i < 200; i++ {
		f.Process(outPkt(time.Duration(i)*5*time.Millisecond, pairN(i)), 1)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

// TestSnapshotV2BitFlipRejected: CRC32C catches every single-bit flip
// anywhere in the stream, including header, frame lengths, vector
// payload, and the trailer itself.
func TestSnapshotV2BitFlipRejected(t *testing.T) {
	_, snap := smallSnapshot(t)
	mut := make([]byte, len(snap))
	for i := range snap {
		for bit := 0; bit < 8; bit++ {
			copy(mut, snap)
			mut[i] ^= 1 << bit
			if _, err := ReadFilter(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flipped bit %d of byte %d/%d accepted", bit, i, len(snap))
			}
		}
	}
}

// TestSnapshotV2TruncationRejected: every proper prefix of a snapshot is
// rejected with an error, never a short-read panic or a silent partial
// load.
func TestSnapshotV2TruncationRejected(t *testing.T) {
	_, snap := smallSnapshot(t)
	for n := 0; n < len(snap); n++ {
		if _, err := ReadFilter(bytes.NewReader(snap[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(snap))
		}
	}
}

// v1Snapshot renders f as a version-1 stream: the v2 header with
// version 1, then the bare vectors, with no frames and no checksum.
func v1Snapshot(t testing.TB, f *Filter, v2 []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(v2[:snapshotHeaderLen])
	binary.LittleEndian.PutUint32(buf.Bytes()[4:], 1)
	for i := 0; i < f.VectorCount(); i++ {
		if _, err := f.Vector(i).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSnapshotV1Rejected: the unchecksummed version-1 stream is no
// longer read. A reader names the version, so a caller cold-starts.
func TestSnapshotV1Rejected(t *testing.T) {
	f, snap := smallSnapshot(t)
	_, err := ReadFilter(bytes.NewReader(v1Snapshot(t, f, snap)))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("v1 snapshot: err=%v, want %v", err, ErrSnapshotVersion)
	}
}

// TestSnapshotHashConstruction: header byte 28 names the hash
// construction. The writer puts the one construction the library has
// (1); a reader takes it and the 0 that once meant the default, with
// identical results. TestSnapshotRejectionTypes covers any other value.
func TestSnapshotHashConstruction(t *testing.T) {
	f, snap := smallSnapshot(t)
	if got := binary.LittleEndian.Uint32(snap[28:]); got != snapshotHash {
		t.Fatalf("writer put construction %d at byte 28, want %d", got, snapshotHash)
	}
	for _, c := range []uint32{0, 1} {
		mut := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint32(mut[28:], c)
		body := mut[:len(mut)-snapshotTrailerLen]
		binary.LittleEndian.PutUint32(mut[len(body):], crc32.Checksum(body, castagnoli))
		restored, err := ReadFilter(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("construction %d rejected: %v", c, err)
		}
		if restored.Config() != f.Config() {
			t.Fatalf("construction %d: config %+v, want %+v", c, restored.Config(), f.Config())
		}
		for i := uint32(0); i < 400; i++ {
			if pair := pairN(i).Inverse(); f.Contains(pair) != restored.Contains(pair) {
				t.Fatalf("construction %d: lookup %d diverges after restore", c, i)
			}
		}
	}
}

// TestSnapshotGeometryCapRejected: a header demanding an absurd
// allocation is refused before any vector memory is reserved.
func TestSnapshotGeometryCapRejected(t *testing.T) {
	_, snap := smallSnapshot(t)
	for _, tc := range []struct {
		name   string
		offset int
		value  uint32
	}{
		{"huge K", 8, 1 << 20},
		{"huge total", 8, maxSnapshotK}, // k=1024 at the seed's NBits is fine; bump NBits too
	} {
		mut := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint32(mut[tc.offset:], tc.value)
		if tc.name == "huge total" {
			binary.LittleEndian.PutUint32(mut[12:], 30) // 1024 × 128 MiB
		}
		_, err := ReadFilter(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("%s: expected geometry error, got %v", tc.name, err)
		}
	}
}

// TestAdvanceBackwardTimestamps: backward and duplicate timestamps are
// clamped, counted only beyond the tolerance window, and never move the
// rotation schedule backwards.
func TestAdvanceBackwardTimestamps(t *testing.T) {
	f, err := New(Config{K: 4, NBits: 10, M: 2, DeltaT: 5 * time.Second, ReorderTolerance: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(time.Second)
	f.Advance(time.Second) // duplicate: never an anomaly
	if got := f.Stats().TimeAnomalies; got != 0 {
		t.Fatalf("duplicate timestamp counted as anomaly: %d", got)
	}
	f.Advance(time.Second - 50*time.Millisecond) // inside the window
	if got := f.Stats().TimeAnomalies; got != 0 {
		t.Fatalf("in-tolerance reorder counted as anomaly: %d", got)
	}
	f.Advance(500 * time.Millisecond) // 500 ms behind: anomaly
	if got := f.Stats().TimeAnomalies; got != 1 {
		t.Fatalf("beyond-tolerance regression not counted: %d", got)
	}
	// The schedule never rewound: the first rotation still fires at 5 s.
	f.Advance(4900 * time.Millisecond)
	if got := f.Stats().Rotations; got != 0 {
		t.Fatalf("rotated early after regression: %d", got)
	}
	f.Advance(5 * time.Second)
	if got := f.Stats().Rotations; got != 1 {
		t.Fatalf("missed rotation after regression: %d", got)
	}
}

// TestProcessAfterClockRegressionKeepsInvariant: a clock-regressed
// interleaving of outbound and inbound packets preserves the hit/miss
// accounting invariant.
func TestProcessAfterClockRegressionKeepsInvariant(t *testing.T) {
	f, err := New(Config{K: 3, NBits: 12, M: 3, DeltaT: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := []time.Duration{0, 2 * time.Second, time.Second, 3 * time.Second, 500 * time.Millisecond, 4 * time.Second}
	for round, now := range ts {
		f.Advance(now)
		for i := uint32(0); i < 50; i++ {
			f.Process(outPkt(now, pairN(i)), 0.5)
			f.Process(inPkt(now, pairN(i)), 0.5)
			f.Process(inPkt(now, pairN(i+10000)), 0.5) // never marked
		}
		s := f.Stats()
		if s.InboundHits+s.InboundMisses != s.InboundPackets {
			t.Fatalf("round %d: hit/miss invariant broken: %d + %d != %d",
				round, s.InboundHits, s.InboundMisses, s.InboundPackets)
		}
		if s.Dropped > s.InboundMisses {
			t.Fatalf("round %d: dropped %d exceeds misses %d", round, s.Dropped, s.InboundMisses)
		}
	}
	if got := f.Stats().TimeAnomalies; got != 2 {
		t.Fatalf("expected 2 time anomalies, got %d", got)
	}
}
