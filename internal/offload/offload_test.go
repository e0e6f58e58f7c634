package offload

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// offloadConfigs spans every index-derivation path a map must describe:
// the classic per-index family, the one-shot derived scheme, the
// blocked cache-line layout, and hole punching (which changes the key
// bytes, not the hashing) on both schemes.
func offloadConfigs() map[string]core.Config {
	return map[string]core.Config{
		"classic": {K: 3, NBits: 12, M: 4, DeltaT: time.Second, Seed: 1},
		"oneshot": {K: 3, NBits: 12, M: 4, DeltaT: time.Second, Seed: 1,
			HashScheme: hashes.SchemeOneShot},
		"blocked": {K: 3, NBits: 12, M: 4, DeltaT: time.Second, Seed: 1,
			Layout: hashes.LayoutBlocked},
		"holepunch": {K: 3, NBits: 12, M: 4, DeltaT: time.Second, Seed: 1,
			HolePunch: true},
		"subword": {K: 2, NBits: 5, M: 2, DeltaT: time.Second, Seed: 1},
		"oneshot-holepunch": {K: 4, NBits: 10, M: 3, DeltaT: time.Second, Seed: 1,
			HashScheme: hashes.SchemeOneShot, HolePunch: true},
	}
}

// testPairs returns a deterministic spread of socket pairs.
func testPairs(n int) []packet.SocketPair {
	pairs := make([]packet.SocketPair, n)
	for i := range pairs {
		u := uint64(i)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		pairs[i] = packet.SocketPair{
			Proto:   packet.TCP,
			SrcAddr: packet.Addr(0x0a000000 | uint32(u)&0xffff),
			SrcPort: uint16(u>>16) | 1,
			DstAddr: packet.Addr(0xc0a80000 | uint32(u>>24)&0xffff),
			DstPort: uint16(u>>40) | 1,
		}
	}
	return pairs
}

func TestGeometryPackRoundTrip(t *testing.T) {
	for name, cfg := range offloadConfigs() {
		g := GeometryOf(cfg)
		w := g.pack()
		if got, err := unpackGeometry(w); err != nil || got != g {
			t.Errorf("%s: pack/unpack mismatch: %+v, %v != %+v", name, got, err, g)
		}
		// The construction byte the format has always carried.
		if c := uint8(w >> 40); c != 1 {
			t.Errorf("%s: hash construction byte %d, want 1", name, c)
		}
		if _, err := g.validate(); err != nil {
			t.Errorf("%s: validate: %v", name, err)
		}
	}
}

func TestNewMapRejects(t *testing.T) {
	good := GeometryOf(core.Config{K: 2, NBits: 8, M: 2})
	cases := []struct {
		name     string
		geom     Geometry
		sections int
		prefix   int
		want     error
	}{
		{"zero k", Geometry{NBits: 8, M: 2, Scheme: hashes.SchemePerIndex, Layout: hashes.LayoutClassic}, 1, 0, ErrMapGeometry},
		{"huge m", Geometry{K: 2, NBits: 8, M: maxMapM + 1, Scheme: hashes.SchemePerIndex, Layout: hashes.LayoutClassic}, 1, 0, ErrMapGeometry},
		{"nbits 0", Geometry{K: 2, M: 2, Scheme: hashes.SchemePerIndex, Layout: hashes.LayoutClassic}, 1, 0, ErrMapGeometry},
		{"unresolved scheme", Geometry{K: 2, NBits: 8, M: 2, Layout: hashes.LayoutClassic}, 1, 0, ErrMapGeometry},
		{"blocked perindex", Geometry{K: 2, NBits: 8, M: 2, Scheme: hashes.SchemePerIndex, Layout: hashes.LayoutBlocked}, 1, 0, ErrMapGeometry},
		{"zero sections", good, 0, 0, ErrMapGeometry},
		{"too many sections", good, maxMapSections + 1, 0, ErrMapGeometry},
		{"prefix too wide", good, 1, 33, ErrMapGeometry},
	}
	for _, tc := range cases {
		if _, err := NewMap(tc.geom, tc.sections, tc.prefix); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestPublishProbeParity is the core correctness property: after a
// Publish, a FastPath probe answers Hit exactly when the filter itself
// would find every bit set — for inbound, precisely Filter.Contains;
// for outbound, only when a re-mark would be a no-op.
func TestPublishProbeParity(t *testing.T) {
	for name, cfg := range offloadConfigs() {
		t.Run(name, func(t *testing.T) {
			f, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMap(GeometryOf(cfg), 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := NewFastPath(m)
			if err != nil {
				t.Fatal(err)
			}
			pairs := testPairs(256)
			for i := 0; i < len(pairs); i += 2 {
				f.Mark(pairs[i])
			}
			if err := m.Section(0).Publish(f); err != nil {
				t.Fatal(err)
			}
			checkParity(t, f, fp, pairs)

			// Incremental republish after more marks and a rotation: the
			// publish must converge to the filter's new state, including
			// the bits rotation cleared.
			f.Rotate()
			for i := 1; i < len(pairs); i += 4 {
				f.Mark(pairs[i])
			}
			if err := m.Section(0).Publish(f); err != nil {
				t.Fatal(err)
			}
			checkParity(t, f, fp, pairs)
		})
	}
}

func checkParity(t *testing.T, f *core.Filter, fp *FastPath, pairs []packet.SocketPair) {
	t.Helper()
	for i, p := range pairs {
		wantIn := Escalate
		if f.Contains(p.Inverse()) {
			wantIn = Hit
		}
		if got := fp.Probe(p.Inverse(), packet.Inbound); got != wantIn {
			t.Fatalf("pair %d inbound: got %v, want %v", i, got, wantIn)
		}
		// Outbound ground truth: Hit only when marking is a no-op in
		// every vector (total set-bit count unchanged by a Mark).
		wantOut := Hit
		ones := 0
		for v := 0; v < f.VectorCount(); v++ {
			ones += f.Vector(v).OnesCount()
		}
		f.Mark(p)
		after := 0
		for v := 0; v < f.VectorCount(); v++ {
			after += f.Vector(v).OnesCount()
		}
		if after != ones {
			wantOut = Escalate
		}
		if got := fp.Probe(p, packet.Outbound); got != wantOut {
			t.Fatalf("pair %d outbound: got %v, want %v", i, got, wantOut)
		}
		// The ground-truth check marked the pair; republish so later
		// iterations (and the next checkParity call) stay in sync.
		if err := fp.Map().Section(0).Publish(f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublishRejects(t *testing.T) {
	cfg := core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Second}
	m, err := NewMap(GeometryOf(cfg), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.New(core.Config{K: 3, NBits: 8, M: 2, DeltaT: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Section(0).Publish(other); !errors.Is(err, ErrMapGeometry) {
		t.Fatalf("geometry mismatch: got %v, want ErrMapGeometry", err)
	}
}

func TestSetLiveGatesProbes(t *testing.T) {
	cfg := core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Second}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMap(GeometryOf(cfg), 1, 0)
	fp, _ := NewFastPath(m)
	pair := testPairs(1)[0]
	f.Mark(pair)

	// Before any publish the section is not live: everything escalates.
	if got := fp.Probe(pair, packet.Outbound); got != Escalate {
		t.Fatalf("pre-publish probe: got %v, want Escalate", got)
	}
	if err := m.Section(0).Publish(f); err != nil {
		t.Fatal(err)
	}
	if got := fp.Probe(pair, packet.Outbound); got != Hit {
		t.Fatalf("post-publish probe: got %v, want Hit", got)
	}
	m.Section(0).SetLive(false)
	if m.Section(0).Live() {
		t.Fatal("section still live after SetLive(false)")
	}
	if got := fp.Probe(pair, packet.Outbound); got != Escalate {
		t.Fatalf("dead-section probe: got %v, want Escalate", got)
	}
	m.Section(0).SetLive(true)
	if got := fp.Probe(pair, packet.Outbound); got != Hit {
		t.Fatalf("revived-section probe: got %v, want Hit", got)
	}
}

func TestSectionRouting(t *testing.T) {
	cfg := core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Second}
	const prefixBits = 8
	m, err := NewMap(GeometryOf(cfg), 3, prefixBits)
	if err != nil {
		t.Fatal(err)
	}
	// Keys must be registered ascending for routed lookup.
	m.SetSectionKey(0, 10, "tenant-a")
	m.SetSectionKey(1, 20, "tenant-b")
	m.SetSectionKey(2, 30, "tenant-c")
	fp, err := NewFastPath(m)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(src, dst uint32) packet.SocketPair {
		return packet.SocketPair{Proto: packet.TCP, SrcAddr: packet.Addr(src), SrcPort: 1, DstAddr: packet.Addr(dst), DstPort: 2}
	}
	cases := []struct {
		pair packet.SocketPair
		want int
	}{
		{mk(10<<24|5, 99<<24), 0}, // src prefix registered
		{mk(99<<24, 20<<24|7), 1}, // dst prefix fallback
		{mk(30<<24, 10<<24), 2},   // src wins over dst
		{mk(99<<24, 98<<24), -1},  // neither registered
		{mk(21<<24, 19<<24), -1},  // between keys
	}
	for i, tc := range cases {
		if got := fp.SectionFor(tc.pair); got != tc.want {
			t.Errorf("case %d: SectionFor = %d, want %d", i, got, tc.want)
		}
	}
	if key, idh := m.SectionKey(1); key != 20 || idh != hashes.FNV1a64([]byte("tenant-b")) {
		t.Fatalf("SectionKey(1) = %d, %#x", key, idh)
	}
}

func TestWriteToOpenBytesRoundTrip(t *testing.T) {
	for name, cfg := range offloadConfigs() {
		t.Run(name, func(t *testing.T) {
			f, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := NewMap(GeometryOf(cfg), 2, 0)
			m.SetSectionKey(0, 0, "t0")
			m.SetSectionKey(1, 1, "t1")
			pairs := testPairs(64)
			for _, p := range pairs[:32] {
				f.Mark(p)
			}
			if err := m.Section(0).Publish(f); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := m.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(m.Size()) {
				t.Fatalf("WriteTo wrote %d bytes, Size says %d", n, m.Size())
			}
			re, err := OpenBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if re.Geometry() != m.Geometry() || re.Sections() != m.Sections() {
				t.Fatal("reopened map header mismatch")
			}
			// The reopened map is probe-only.
			if err := re.Section(0).Publish(f); !errors.Is(err, ErrMapReadOnly) {
				t.Fatalf("Publish on opened map: got %v, want ErrMapReadOnly", err)
			}
			// Verdict equivalence between the live map and its image.
			live, _ := NewFastPath(m)
			img, _ := NewFastPath(re)
			for _, p := range pairs {
				for _, dir := range []packet.Direction{packet.Outbound, packet.Inbound} {
					if lv, iv := live.ProbeSection(0, p, dir), img.ProbeSection(0, p, dir); lv != iv {
						t.Fatalf("verdict divergence %v: live %v, image %v", dir, lv, iv)
					}
				}
			}
			// A second serialization of the image is byte-identical.
			var buf2 bytes.Buffer
			if _, err := re.WriteTo(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("WriteTo image not stable across reopen")
			}
		})
	}
}

func TestOpenBytesRejects(t *testing.T) {
	cfg := core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Second}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := func() []byte {
		m, _ := NewMap(GeometryOf(cfg), 2, 4)
		m.SetSectionKey(0, 1, "a")
		m.SetSectionKey(1, 2, "b")
		if err := m.Section(0).Publish(f); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	put := func(b []byte, word int, v uint64) []byte {
		out := append([]byte(nil), b...)
		for i := 0; i < 8; i++ {
			out[word*8+i] = byte(v >> (8 * i))
		}
		return out
	}
	img := base()
	if _, err := OpenBytes(img); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	secBase := func(s int) int { return headerWords + 2*dirEntryWords + s*(sectionHeaderWords+2*4) }
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrMapTruncated},
		{"short", img[:40], ErrMapTruncated},
		{"unaligned", img[:41], ErrMapTruncated},
		{"truncated body", img[:len(img)-8], ErrMapTruncated},
		{"trailing junk", append(append([]byte(nil), img...), make([]byte, 8)...), ErrMapTruncated},
		{"bad magic", put(img, hdrMagic, 0xdead), ErrMapMagic},
		{"bad version", put(img, hdrVersion, 99), ErrMapVersion},
		{"geometry lie k=0", put(img, hdrGeom, geomWord(img)&^0xffff), ErrMapGeometry},
		{"hash construction 0", put(img, hdrGeom, geomWord(img)&^(0xff<<40)), ErrMapGeometry},
		{"hash construction 2", put(img, hdrGeom, geomWord(img)&^(0xff<<40)|2<<40), ErrMapGeometry},
		{"vecwords lie", put(img, hdrVecWords, 7), ErrMapGeometry},
		{"sections lie", put(img, hdrSections, 3), ErrMapTruncated},
		{"prefix lie", put(img, hdrPrefix, 40), ErrMapGeometry},
		{"reserved dirty", put(img, hdrPrefix+1, 1), ErrMapCorrupt},
		{"unsorted keys", put(img, headerWords+dirEntryWords, 1), ErrMapCorrupt},
		{"key overflow", put(img, headerWords, 1<<40), ErrMapCorrupt},
		{"bad offset", put(img, headerWords+2, 9999), ErrMapCorrupt},
		{"torn generation", put(img, secBase(0)+secGen, 3), ErrMapTorn},
		{"curidx out of range", put(img, secBase(0)+secCurIdx, 2), ErrMapCorrupt},
		{"unknown flags", put(img, secBase(0)+secFlags, 0x10), ErrMapCorrupt},
	}
	for _, tc := range cases {
		if _, err := OpenBytes(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Sub-word vectors must have no bits beyond 2^n.
	subCfg := core.Config{K: 1, NBits: 4, M: 1, DeltaT: time.Second}
	sm, _ := NewMap(GeometryOf(subCfg), 1, 0)
	sf, _ := core.New(subCfg)
	if err := sm.Section(0).Publish(sf); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if _, err := sm.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	simg := put(sb.Bytes(), headerWords+dirEntryWords+sectionHeaderWords, 1<<20)
	if _, err := OpenBytes(simg); !errors.Is(err, ErrMapCorrupt) {
		t.Fatalf("overlong sub-word vector: got %v, want ErrMapCorrupt", err)
	}
}

// geomWord returns an image's geometry word, for "geometry lies"
// mutations that rewrite one field and keep the rest intact.
func geomWord(img []byte) uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(img[hdrGeom*8+i]) << (8 * i)
	}
	return w
}

func TestMissRing(t *testing.T) {
	r := NewMissRing[int](3) // rounds up to 4
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d refused on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push accepted on full ring")
	}
	if r.Overflow() != 1 {
		t.Fatalf("Overflow = %d, want 1", r.Overflow())
	}
	got := r.Drain(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("drain[%d] = %d, want %d (FIFO)", i, v, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
	// Wraparound reuse.
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			r.TryPush(round*10 + i)
		}
		got = r.Drain(got[:0])
		if len(got) != 3 || got[0] != round*10 {
			t.Fatalf("round %d: drain %v", round, got)
		}
	}
}

func TestProbeZeroAlloc(t *testing.T) {
	cfg := core.Config{K: 4, NBits: 16, M: 3, DeltaT: time.Second}
	f, _ := core.New(cfg)
	m, _ := NewMap(GeometryOf(cfg), 1, 0)
	fp, _ := NewFastPath(m)
	pairs := testPairs(32)
	for _, p := range pairs {
		f.Mark(p)
	}
	if err := m.Section(0).Publish(f); err != nil {
		t.Fatal(err)
	}
	ring := NewMissRing[packet.SocketPair](64)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		p := pairs[i%len(pairs)]
		i++
		if fp.Probe(p, packet.Inbound) == Escalate {
			ring.TryPush(p)
		}
		_ = fp.SectionFor(p)
	}); n != 0 {
		t.Fatalf("probe path allocates %.1f/op, want 0", n)
	}
}
