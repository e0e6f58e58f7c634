package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestSnapshotRejectionTypes pins the typed-error contract of
// ReadFilter: each rejection cause unwraps to exactly its sentinel, so
// callers can distinguish "not a snapshot" / "wrong version" /
// "implausible geometry" / "structurally corrupt" / "failed checksum"
// with errors.Is instead of string matching.
func TestSnapshotRejectionTypes(t *testing.T) {
	_, snap := smallSnapshot(t)
	sentinels := []error{ErrSnapshotMagic, ErrSnapshotVersion, ErrSnapshotGeometry, ErrSnapshotCorrupt, ErrSnapshotChecksum}
	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xff }, ErrSnapshotMagic},
		{"future version", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }, ErrSnapshotVersion},
		{"unknown hash construction", func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 2) }, ErrSnapshotGeometry},
		{"k over cap", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<20) }, ErrSnapshotGeometry},
		{"m over cap", func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<20) }, ErrSnapshotGeometry},
		{"bytes over cap", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], maxSnapshotK)
			binary.LittleEndian.PutUint32(b[12:], 30)
		}, ErrSnapshotGeometry},
		{"zero m config", func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 0) }, ErrSnapshotCorrupt},
		{"zero rotation period", func(b []byte) { binary.LittleEndian.PutUint64(b[20:], 0) }, ErrSnapshotCorrupt},
		{"rotation index out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[36:], 7) }, ErrSnapshotCorrupt},
		{"flipped payload bit", func(b []byte) { b[snapshotHeaderLen+9] ^= 0x04 }, ErrSnapshotChecksum},
		{"flipped trailer bit", func(b []byte) { b[len(b)-1] ^= 0x80 }, ErrSnapshotChecksum},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), snap...)
		tc.mutate(mut)
		_, err := ReadFilter(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err=%v, not errors.Is %v", tc.name, err, tc.want)
		}
		for _, s := range sentinels {
			if s != tc.want && errors.Is(err, s) {
				t.Fatalf("%s: err=%v matches extra sentinel %v", tc.name, err, s)
			}
		}
	}
}

// TestAlignRotations proves the fleet epoch-alignment contract: from
// any starting count, aligning to a peer's count lands on the same
// (count, current-index) pair the fleet convention dictates — index ≡
// count mod k — whether the gap is bridged rotation by rotation or by
// the clear-everything jump path, and a backward target is a no-op.
func TestAlignRotations(t *testing.T) {
	mk := func() *Filter {
		f, err := New(Config{K: 4, NBits: 10, M: 2, DeltaT: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, target := range []int64{1, 2, 3, 4, 5, 17, 4096} {
		f := mk()
		f.AlignRotations(target)
		if got := f.Rotations(); got != target {
			t.Fatalf("target %d: rotations=%d", target, got)
		}
		if got, want := f.Index(), int(target%4); got != want {
			t.Fatalf("target %d: idx=%d, want %d", target, got, want)
		}
		f.AlignRotations(target - 1) // backward: no-op
		if got := f.Rotations(); got != target {
			t.Fatalf("backward align moved rotations to %d", got)
		}
	}
	// Incremental alignment matches one big jump.
	a, b := mk(), mk()
	for r := int64(1); r <= 9; r++ {
		a.AlignRotations(r)
	}
	b.AlignRotations(9)
	if a.Index() != b.Index() || a.Rotations() != b.Rotations() {
		t.Fatalf("incremental (%d,%d) != jump (%d,%d)", a.Rotations(), a.Index(), b.Rotations(), b.Index())
	}
	// The k-or-more jump wipes every vector: fail-closed, no stale marks.
	f := mk()
	f.Advance(0)
	f.Mark(pairN(1))
	f.AlignRotations(100)
	if f.Contains(pairN(1).Inverse()) {
		t.Fatal("mark survived a clear-everything alignment jump")
	}
}
