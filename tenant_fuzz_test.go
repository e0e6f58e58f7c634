package p2pbound

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pbound/internal/core"
)

// fuzzTenantManager builds the small fixed manager every fuzz execution
// restores into: two /24 subscribers on a tiny filter geometry, one of
// them holding a marked flow and the other spilled, so a restore has
// live state to corrupt in every hydration state the format encodes.
func fuzzTenantManager(tb testing.TB) *TenantManager {
	tb.Helper()
	m, err := NewTenantManager(TenantManagerConfig{
		Tenant: Config{
			LowMbps: 0.1, HighMbps: 0.5,
			Vectors: 2, VectorBits: 8, HashFunctions: 2,
			RotateEvery: time.Hour, Seed: 42,
		},
		PrefixBits: 24,
	})
	if err != nil {
		tb.Fatal(err)
	}
	err = m.AddTenants([]TenantConfig{
		{ID: "alpha", Network: "10.0.0.0/24"},
		{ID: "beta", Network: "10.0.1.0/24"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	m.Process(tenantOutbound(0, 1, 0))                // alpha: hydrated, marked
	m.Process(tenantOutbound(1, 1, time.Millisecond)) // beta: marked...
	m.EvictIdle(0)
	m.Process(tenantInbound(0, 1, time.Second)) // ...and alpha rehydrated
	return m
}

// fuzzTenantSeeds returns the named seed inputs: one valid snapshot in
// each interesting shape, plus the classic corruptions. The same map
// feeds f.Add and the checked-in corpus regeneration.
func fuzzTenantSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	m := fuzzTenantManager(tb)
	var full bytes.Buffer
	if err := m.SaveTenantState(&full); err != nil {
		tb.Fatal(err)
	}
	valid := full.Bytes()

	// A snapshot with no per-tenant state at all (fresh manager).
	fresh, err := NewTenantManager(TenantManagerConfig{
		Tenant: Config{
			LowMbps: 0.1, HighMbps: 0.5,
			Vectors: 2, VectorBits: 8, HashFunctions: 2,
			RotateEvery: time.Hour, Seed: 42,
		},
		PrefixBits: 24,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := fresh.AddTenants([]TenantConfig{
		{ID: "alpha", Network: "10.0.0.0/24"},
		{ID: "beta", Network: "10.0.1.0/24"},
	}); err != nil {
		tb.Fatal(err)
	}
	var cold bytes.Buffer
	if err := fresh.SaveTenantState(&cold); err != nil {
		tb.Fatal(err)
	}

	mut := func(f func(b []byte)) []byte {
		c := append([]byte(nil), valid...)
		f(c)
		return c
	}
	return map[string][]byte{
		"valid":          valid,
		"valid-cold":     cold.Bytes(),
		"empty":          {},
		"header-only":    valid[:16],
		"bad-magic":      mut(func(b []byte) { b[0] ^= 0xff }),
		"bad-version":    mut(func(b []byte) { b[4] = 0x7f }),
		"bad-count":      mut(func(b []byte) { b[12] = 0xee }),
		"flipped-body":   mut(func(b []byte) { b[len(b)/2] ^= 0x20 }),
		"flipped-crc":    mut(func(b []byte) { b[len(b)-2] ^= 0x01 }),
		"truncated-mid":  valid[:len(valid)*2/3],
		"truncated-tail": valid[:len(valid)-3],
	}
}

// FuzzTenantSnapshot pins the restore contract on arbitrary input:
// RestoreTenantState either succeeds, or fails with exactly one of the
// typed sentinels — and a failure leaves the manager byte-for-byte
// untouched: stats unchanged, previously marked flows still matching,
// and a subsequent save identical to one taken before the attempt.
func FuzzTenantSnapshot(f *testing.F) {
	for _, data := range fuzzTenantSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzTenantManager(t)
		var before bytes.Buffer
		if err := m.SaveTenantState(&before); err != nil {
			t.Fatal(err)
		}
		statsBefore := m.Stats()

		err := m.RestoreTenantState(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTenantSnapshotMagic) &&
				!errors.Is(err, ErrTenantSnapshotVersion) &&
				!errors.Is(err, ErrTenantSnapshotCorrupt) &&
				!errors.Is(err, ErrTenantSnapshotChecksum) &&
				!errors.Is(err, ErrUnknownTenant) &&
				!errors.Is(err, ErrGeometryMismatch) {
				t.Fatalf("untyped restore error: %v", err)
			}
			if got := m.Stats(); got != statsBefore {
				t.Fatalf("failed restore mutated stats: %+v -> %+v", statsBefore, got)
			}
			var after bytes.Buffer
			if err := m.SaveTenantState(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed restore mutated tenant state")
			}
		}
		// Whatever happened, the manager must still be coherent: the
		// flow alpha marked before the restore attempt is only required
		// to survive a *failed* restore (a successful one installs the
		// input's own state, which also carries the mark for our seeds
		// but need not for arbitrary accepted inputs), and processing
		// must not panic either way.
		if err != nil {
			if got := m.Process(tenantInbound(0, 1, 2*time.Second)); got != Pass {
				t.Fatalf("marked flow lost after failed restore: %v", got)
			}
		} else {
			m.Process(tenantInbound(0, 1, 2*time.Second))
			// An accepted stream must itself round-trip.
			var again bytes.Buffer
			if err := m.SaveTenantState(&again); err != nil {
				t.Fatalf("save after accepted restore: %v", err)
			}
			if err := m.RestoreTenantState(bytes.NewReader(again.Bytes())); err != nil {
				t.Fatalf("round-trip of accepted restore: %v", err)
			}
		}
	})
}

// TestTenantFuzzSeedsDecode runs every seed through the fuzz body once
// under plain `go test`, so the corpus is exercised even where the fuzz
// engine never runs.
func TestTenantFuzzSeedsDecode(t *testing.T) {
	for name, data := range fuzzTenantSeeds(t) {
		m := fuzzTenantManager(t)
		err := m.RestoreTenantState(bytes.NewReader(data))
		switch name {
		case "valid", "valid-cold":
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		default:
			if err == nil {
				t.Errorf("%s: corrupt seed accepted", name)
			}
		}
	}
}

// TestTenantFuzzCorpusCurrent pins the BMTM bytes themselves: the
// valid seeds checked in under testdata/fuzz/FuzzTenantSnapshot equal
// what the code saves today for the same manager, so a change to how
// tenant state is kept in process cannot change the format on disk
// unnoticed.
func TestTenantFuzzCorpusCurrent(t *testing.T) {
	seeds := fuzzTenantSeeds(t)
	for _, name := range []string{"valid", "valid-cold"} {
		body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTenantSnapshot", name))
		if err != nil {
			t.Fatal(err)
		}
		const head, tail = "go test fuzz v1\n[]byte(", ")\n"
		quoted, ok := strings.CutPrefix(string(body), head)
		if !ok {
			t.Fatalf("%s: not a one-value corpus file", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, tail))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal([]byte(data), seeds[name]) {
			t.Errorf("%s: saved bytes differ from the checked-in corpus", name)
		}
	}
}

// TestTenantSnapshotRejectsV1Bitmap: a frame whose embedded filter is a
// version-1 core stream fails the whole restore as a corrupt frame
// whose cause is core.ErrSnapshotVersion, and leaves the manager as it
// was.
func TestTenantSnapshotRejectsV1Bitmap(t *testing.T) {
	m := fuzzTenantManager(t)
	var before bytes.Buffer
	if err := m.SaveTenantState(&before); err != nil {
		t.Fatal(err)
	}
	frames, prefixBits, err := decodeTenantSnapshot(before.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.Write(before.Bytes()[:16])
	rewritten := 0
	for i := range frames {
		fr := &frames[i]
		if fr.flags&tenantFlagBitmap != 0 {
			// The v1 form: the v2 header with version 1, then the bare
			// vectors, with no frames and no checksum.
			f, err := core.ReadFilter(bytes.NewReader(fr.bitmap))
			if err != nil {
				t.Fatal(err)
			}
			var v1 bytes.Buffer
			v1.Write(fr.bitmap[:56])
			binary.LittleEndian.PutUint32(v1.Bytes()[4:], 1)
			for v := 0; v < f.VectorCount(); v++ {
				if _, err := f.Vector(v).WriteTo(&v1); err != nil {
					t.Fatal(err)
				}
			}
			fr.bitmap = v1.Bytes()
			rewritten++
		}
		appendTenantFrame(&body, fr)
	}
	if rewritten == 0 || prefixBits != 24 {
		t.Fatalf("fixture has %d bitmaps at /%d", rewritten, prefixBits)
	}
	stream := binary.LittleEndian.AppendUint32(body.Bytes(), crc32.Checksum(body.Bytes(), tenantCastagnoli))
	err = m.RestoreTenantState(bytes.NewReader(stream))
	if !errors.Is(err, ErrTenantSnapshotCorrupt) || !errors.Is(err, core.ErrSnapshotVersion) {
		t.Fatalf("restore of a v1 bitmap: err=%v, want %v and %v", err, ErrTenantSnapshotCorrupt, core.ErrSnapshotVersion)
	}
	var after bytes.Buffer
	if err := m.SaveTenantState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("rejected restore mutated tenant state")
	}
}

// TestRegenTenantFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzTenantSnapshot, mirroring the f.Add seeds so CI
// machines — which run seeds but not the mutation engine — exercise
// every snapshot shape and the classic corruptions from a cold
// checkout. Run with
//
//	P2PBOUND_REGEN_CORPUS=1 go test -run TestRegenTenantFuzzCorpus .
//
// after changing the tenant snapshot format, and commit the result.
func TestRegenTenantFuzzCorpus(t *testing.T) {
	if os.Getenv("P2PBOUND_REGEN_CORPUS") == "" {
		t.Skip("set P2PBOUND_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTenantSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzTenantSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
