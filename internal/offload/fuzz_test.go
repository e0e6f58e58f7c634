package offload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// fuzzMapSeeds builds the seed corpus: one valid image per geometry
// family plus the classic corruptions — truncation, bit flips in every
// structural region, generation tears, and headers whose geometry lies
// about the body that follows.
func fuzzMapSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	image := func(cfg core.Config, sections, prefixBits, marks int) []byte {
		f, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMap(GeometryOf(cfg), sections, prefixBits)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sections; s++ {
			m.SetSectionKey(s, uint32(s+1), "tenant-"+strconv.Itoa(s))
		}
		for _, p := range testPairs(marks) {
			f.Mark(p)
		}
		if err := m.Section(0).Publish(f); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	classic := image(core.Config{K: 3, NBits: 10, M: 4, DeltaT: time.Second}, 1, 0, 32)
	routed := image(core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Second}, 3, 8, 16)
	blocked := image(core.Config{K: 2, NBits: 12, M: 3, DeltaT: time.Second,
		Layout: hashes.LayoutBlocked, HolePunch: true}, 1, 0, 48)
	subword := image(core.Config{K: 2, NBits: 4, M: 2, DeltaT: time.Second}, 1, 0, 4)

	flip := func(b []byte, i int, mask byte) []byte {
		out := append([]byte(nil), b...)
		out[i%len(out)] ^= mask
		return out
	}
	seeds := map[string][]byte{
		"classic":        classic,
		"routed":         routed,
		"blocked":        blocked,
		"subword":        subword,
		"empty":          {},
		"short":          classic[:17],
		"header-only":    classic[:headerWords*8],
		"truncated-body": classic[:len(classic)-16],
		"magic-flip":     flip(classic, 0, 0x01),
		"version-flip":   flip(classic, 8, 0x02),
		"geom-flip":      flip(classic, hdrGeom*8, 0x40),
		"geom-k-lie":     flip(classic, hdrGeom*8, 0xff),
		"sections-lie":   flip(routed, hdrSections*8, 0x04),
		"prefix-lie":     flip(routed, hdrPrefix*8, 0x3f),
		"dir-key-flip":   flip(routed, (headerWords+dirEntryWords)*8, 0xff),
		"dir-off-flip":   flip(routed, (headerWords+2)*8, 0x10),
		"gen-tear":       flip(classic, (headerWords+dirEntryWords+secGen)*8, 0x01),
		"curidx-flip":    flip(classic, (headerWords+dirEntryWords+secCurIdx)*8, 0x07),
		"flags-flip":     flip(classic, (headerWords+dirEntryWords+secFlags)*8, 0xfe),
		"body-flip":      flip(classic, len(classic)-24, 0x80),
		"subword-spill":  flip(subword, (headerWords+dirEntryWords+sectionHeaderWords)*8+3, 0xff),
	}
	return seeds
}

// FuzzOffloadMap throws arbitrary bytes at the flat-map decoder and
// holds it to the typed-sentinel-or-valid contract: every rejection is
// errors.Is-matchable to an ErrMap* sentinel, and every accepted map
// is fully probeable (no panic, no out-of-section read) and reproduces
// its own image byte-for-byte through WriteTo.
func FuzzOffloadMap(f *testing.F) {
	for _, seed := range fuzzMapSeeds(f) {
		f.Add(seed)
	}
	sentinels := []error{
		ErrMapMagic, ErrMapVersion, ErrMapTruncated,
		ErrMapGeometry, ErrMapCorrupt, ErrMapTorn,
	}
	probes := testPairs(8)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := OpenBytes(data)
		if err != nil {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		fp, err := NewFastPath(m)
		if err != nil {
			t.Fatalf("validated map rejected by NewFastPath: %v", err)
		}
		for _, p := range probes {
			sec := fp.SectionFor(p)
			if sec < 0 {
				sec = 0
			}
			if v := fp.ProbeSection(sec, p, packet.Outbound); v != Hit && v != Escalate {
				t.Fatalf("probe returned non-verdict %d", v)
			}
			if v := fp.ProbeSection(sec, p, packet.Inbound); v != Hit && v != Escalate {
				t.Fatalf("probe returned non-verdict %d", v)
			}
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo of accepted map: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted map does not round-trip byte-identically")
		}
		if _, err := OpenBytes(buf.Bytes()); err != nil {
			t.Fatalf("round-tripped image rejected: %v", err)
		}
	})
}

// TestOffloadFuzzCorpusCurrent pins the map bytes themselves: every
// seed checked in under testdata/fuzz/FuzzOffloadMap equals what the
// code writes today for the same filters, so a change to how the map
// derives or stores bits cannot change the format unnoticed.
func TestOffloadFuzzCorpusCurrent(t *testing.T) {
	for name, want := range fuzzMapSeeds(t) {
		body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOffloadMap", name))
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

// TestRegenOffloadFuzzCorpus rewrites the checked-in seed corpus so a
// cold checkout fuzzes every map shape and corruption class. Run with
//
//	P2PBOUND_REGEN_CORPUS=1 go test -run TestRegenOffloadFuzzCorpus ./internal/offload/
//
// after changing the flat-map format, and commit the result.
func TestRegenOffloadFuzzCorpus(t *testing.T) {
	if os.Getenv("P2PBOUND_REGEN_CORPUS") == "" {
		t.Skip("set P2PBOUND_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOffloadMap")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzMapSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
