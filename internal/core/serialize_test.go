package core

import (
	"bytes"
	"testing"
	"time"

	"p2pbound/internal/hashes"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{K: 3, NBits: 14, M: 2, DeltaT: 2 * time.Second, HolePunch: true, Seed: 9}
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

	// The snapshot normalizes the zero scheme/layout to the classic
	// defaults.
	wantCfg := cfg
	wantCfg.HashScheme = hashes.SchemePerIndex
	wantCfg.Layout = hashes.LayoutClassic
	if restored.Config() != wantCfg {
		t.Fatalf("config drift: %+v vs %+v", restored.Config(), wantCfg)
	}
	// Every tracked flow must still be admitted by the restored filter,
	// and both filters must agree on arbitrary lookups.
	for i := uint32(0); i < 2000; i++ {
		pair := pairN(i).Inverse()
		if f.Contains(pair) != restored.Contains(pair) {
			t.Fatalf("lookup %d diverges after restore", i)
		}
	}
	if restored.Utilization() != f.Utilization() {
		t.Fatalf("utilization drift: %g vs %g", restored.Utilization(), f.Utilization())
	}
}

// TestSnapshotRotationScheduleSurvives: the restored filter rotates at the
// same simulated instants the original would have.
func TestSnapshotRotationScheduleSurvives(t *testing.T) {
	f, err := New(Config{K: 4, NBits: 12, M: 3, DeltaT: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(time.Second)
	f.Advance(12 * time.Second) // two rotations done; next at 15 s

	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFilter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored.Advance(14 * time.Second)
	if got := restored.Stats().Rotations; got != 0 {
		t.Fatalf("restored filter rotated early: %d", got)
	}
	restored.Advance(15 * time.Second)
	if got := restored.Stats().Rotations; got != 1 {
		t.Fatalf("restored filter missed its schedule: %d rotations", got)
	}
}

func TestReadFilterRejectsGarbage(t *testing.T) {
	if _, err := ReadFilter(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := ReadFilter(bytes.NewReader(make([]byte, 56))); err == nil {
		t.Fatal("zero header accepted")
	}
	// A valid header with truncated vector data must fail cleanly.
	f, err := New(Config{K: 2, NBits: 12, M: 2, DeltaT: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFilter(bytes.NewReader(buf.Bytes()[:100])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
