package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pbound/internal/hashes"
)

// fuzzFilterSeeds builds the checked-in FuzzReadFilter corpus: a valid
// snapshot of each layout and the classic corruptions.
func fuzzFilterSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	snapshot := func(cfg Config) []byte {
		src, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Advance(0)
		for i := uint32(0); i < 100; i++ {
			src.Process(outPkt(time.Duration(i)*time.Millisecond, pairN(i)), 1)
		}
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := snapshot(Config{K: 2, NBits: 10, M: 2, DeltaT: time.Second, Seed: 11})
	// A blocked-geometry snapshot, so the fuzzer mutates header bytes
	// 34/35 (scheme/layout) from a stream where they are non-zero.
	v2blocked := snapshot(Config{K: 2, NBits: 10, M: 2, DeltaT: time.Second, Seed: 11, Layout: hashes.LayoutBlocked})
	flipped := append([]byte(nil), v2...)
	flipped[60] ^= 0x10
	return map[string][]byte{
		"seed-v2":         v2,
		"seed-v2-blocked": v2blocked,
		"seed-truncated":  v2[:40],
		"seed-flipped":    flipped,
		"seed-empty":      {},
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzReadFilter. The corpus mirrors the f.Add seeds so
// CI machines — which run seeds but not the mutation engine — exercise
// the interesting snapshot shapes from a cold checkout. Run with
//
//	P2PBOUND_REGEN_CORPUS=1 go test -run TestRegenFuzzCorpus ./internal/core
//
// after changing the snapshot format, and commit the result.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("P2PBOUND_REGEN_CORPUS") == "" {
		t.Skip("set P2PBOUND_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	writeSeedCorpus(t, filepath.Join("testdata", "fuzz", "FuzzReadFilter"), fuzzFilterSeeds(t))
}

// TestFuzzCorpusCurrent pins the snapshot bytes themselves: every seed
// checked in under testdata/fuzz/FuzzReadFilter equals what the code
// writes today for the same filter, so a change to how filters hash or
// store state cannot change the format on disk unnoticed.
func TestFuzzCorpusCurrent(t *testing.T) {
	for name, want := range fuzzFilterSeeds(t) {
		body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadFilter", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(body), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a one-value corpus file", name)
		}
		got, err := strconv.Unquote(strings.TrimSuffix(quoted, ")\n"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal([]byte(got), want) {
			t.Errorf("%s: written bytes differ from the checked-in corpus", name)
		}
	}
}

// writeSeedCorpus writes each entry in the `go test fuzz v1` format the
// fuzzing engine loads from testdata/fuzz/<FuzzName>/.
func writeSeedCorpus(t *testing.T, dir string, seeds map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
