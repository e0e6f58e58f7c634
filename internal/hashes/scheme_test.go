package hashes

import (
	"encoding/binary"
	"testing"
)

func TestResolveSchemeLayoutDefaults(t *testing.T) {
	cases := []struct {
		name       string
		scheme     Scheme
		layout     Layout
		wantScheme Scheme
		wantLayout Layout
		wantErr    bool
	}{
		{"zero-zero", 0, 0, SchemePerIndex, LayoutClassic, false},
		{"explicit-classic", SchemePerIndex, LayoutClassic, SchemePerIndex, LayoutClassic, false},
		{"oneshot-classic", SchemeOneShot, 0, 0, 0, true},
		{"blocked-implies-oneshot", 0, LayoutBlocked, SchemeOneShot, LayoutBlocked, false},
		{"blocked-oneshot", SchemeOneShot, LayoutBlocked, SchemeOneShot, LayoutBlocked, false},
		{"blocked-perindex-rejected", SchemePerIndex, LayoutBlocked, 0, 0, true},
		{"unknown-scheme", Scheme(99), 0, 0, 0, true},
		{"unknown-layout", 0, Layout(99), 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scheme, layout, err := ResolveSchemeLayout(tc.scheme, tc.layout)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ResolveSchemeLayout(%v, %v) = %v, %v, nil; want error", tc.scheme, tc.layout, scheme, layout)
				}
				return
			}
			if err != nil {
				t.Fatalf("ResolveSchemeLayout(%v, %v): %v", tc.scheme, tc.layout, err)
			}
			if scheme != tc.wantScheme || layout != tc.wantLayout {
				t.Fatalf("ResolveSchemeLayout(%v, %v) = %v, %v; want %v, %v",
					tc.scheme, tc.layout, scheme, layout, tc.wantScheme, tc.wantLayout)
			}
		})
	}
}

func TestSchemeLayoutStrings(t *testing.T) {
	if got := SchemePerIndex.String(); got != "per-index" {
		t.Errorf("SchemePerIndex.String() = %q", got)
	}
	if got := SchemeOneShot.String(); got != "one-shot" {
		t.Errorf("SchemeOneShot.String() = %q", got)
	}
	if got := LayoutClassic.String(); got != "classic" {
		t.Errorf("LayoutClassic.String() = %q", got)
	}
	if got := LayoutBlocked.String(); got != "blocked" {
		t.Errorf("LayoutBlocked.String() = %q", got)
	}
	if got := Scheme(7).String(); got != "scheme(7)" {
		t.Errorf("Scheme(7).String() = %q", got)
	}
	if got := Layout(7).String(); got != "layout(7)" {
		t.Errorf("Layout(7).String() = %q", got)
	}
}

// keyHash is the one-shot hash of a key of 8 to 16 bytes, loaded as its
// two overlapping words the way packet.SocketPair.KeyWords produces
// them.
func keyHash(key []byte) uint64 {
	return Sum64Words(binary.LittleEndian.Uint64(key), binary.LittleEndian.Uint64(key[len(key)-8:]), uint64(len(key)))
}

// TestPerIndexFrozenAgainstOneShot: the per-index family is the frozen
// pre-scheme derivation — the Kirsch–Mitzenmacher expansion of
// mix64(FNV1a64) — because snapshots written before the scheme byte
// existed resolve to SchemePerIndex. It must NOT follow the one-shot
// hash, which the one-shot scheme is free to define as a faster key
// hash: the two schemes derive different indexes for the same key.
func TestPerIndexFrozenAgainstOneShot(t *testing.T) {
	f, err := NewFamily(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	var key [13]byte
	per := make([]uint32, 5)
	one := make([]uint32, 5)
	agree := 0
	for trial := 0; trial < 1000; trial++ {
		binary.LittleEndian.PutUint64(key[:8], uint64(trial)*0x9e3779b97f4a7c15+1)
		binary.LittleEndian.PutUint32(key[8:12], uint32(trial))
		f.SumInto(per, key[:])
		// The frozen derivation, written out: expand mix64(FNV1a64(key)).
		h := uint64(0xcbf29ce484222325)
		for _, b := range key {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		h1, h2 := uint32(h), uint32(h>>32)|1
		for i := range per {
			if want := (h1 + uint32(i)*h2) & (1<<20 - 1); per[i] != want {
				t.Fatalf("trial %d index %d: per-index %d != frozen %d", trial, i, per[i], want)
			}
		}
		if f.derivedInto(one, keyHash(key[:])); one[0] == per[0] {
			agree++
		}
	}
	if agree > 100 {
		t.Fatalf("one-shot derivation agrees with per-index on %d/1000 keys; Sum64Words does not look independent", agree)
	}
}

// TestBlockedIntoConfinedToOneLine: every index of a key must land in
// the same 512-bit block — the property the whole layout exists for.
func TestBlockedIntoConfinedToOneLine(t *testing.T) {
	f, err := NewFamily(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	var key [13]byte
	idx := make([]uint32, 8)
	for trial := 0; trial < 2000; trial++ {
		binary.LittleEndian.PutUint64(key[:8], uint64(trial)*0x6c62272e07bb0142+3)
		f.BlockedInto(idx, keyHash(key[:]))
		line := idx[0] / LineBits
		for _, i := range idx {
			if i>>24 != 0 {
				t.Fatalf("trial %d: index %d out of the 2^24 range", trial, i)
			}
			if i/LineBits != line {
				t.Fatalf("trial %d: indexes straddle lines %d and %d", trial, line, i/LineBits)
			}
		}
	}
}

// TestBlockedIntoTinyVector: a vector smaller than one cache line
// degenerates to a single block covering the whole vector.
func TestBlockedIntoTinyVector(t *testing.T) {
	f, err := NewFamily(4, 8) // 256-bit vector < 512-bit line
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]uint32, 4)
	for trial := 0; trial < 500; trial++ {
		f.BlockedInto(idx, Sum64Words(uint64(trial), uint64(trial)<<8|7, 11))
		for _, i := range idx {
			if i >= 256 {
				t.Fatalf("trial %d: index %d outside the 256-bit vector", trial, i)
			}
		}
	}
}

// TestBlockedIntoSpread: blocks must be chosen roughly uniformly, or
// the layout would concentrate utilization and blow up the false
// positive rate. With 4096 keys over 32768 lines, any line hit by more
// than a handful of keys signals a broken block choice.
func TestBlockedIntoSpread(t *testing.T) {
	f, err := NewFamily(4, 24)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4096
	lines := make(map[uint32]int)
	var key [8]byte
	idx := make([]uint32, 4)
	for trial := 0; trial < keys; trial++ {
		binary.LittleEndian.PutUint64(key[:], uint64(trial))
		f.BlockedInto(idx, keyHash(key[:]))
		lines[idx[0]/LineBits]++
	}
	if len(lines) < keys*9/10 {
		t.Fatalf("only %d distinct lines for %d keys; block choice is not spreading", len(lines), keys)
	}
	for line, n := range lines {
		if n > 6 {
			t.Fatalf("line %d chosen by %d keys; expected near-uniform spread", line, n)
		}
	}
}

// TestSum64Deterministic: the one-shot hash must be a pure function of
// the key words and length, and sensitive to the length, which tells
// apart the full and hole-punch keys of one socket pair.
func TestSum64Deterministic(t *testing.T) {
	key := []byte("one-shot probe")
	h := keyHash(key)
	if h2 := keyHash(key); h2 != h {
		t.Fatalf("Sum64Words not deterministic: %#x vs %#x", h, h2)
	}
	a, b := binary.LittleEndian.Uint64(key), binary.LittleEndian.Uint64(key[len(key)-8:])
	if Sum64Words(a, b, 11) == h {
		t.Fatalf("Sum64Words ignores the key length: %#x", h)
	}
}
