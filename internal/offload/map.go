// Package offload implements the kernel-offload fast path of the
// two-tier NFQUEUE/XDP split (DESIGN.md §17): a flat, self-describing
// export of one or more core.Filter bitmaps that a dumb per-packet
// stage — an XDP program consulting a BPF array map, a DPDK core, or
// the in-process FastPath simulator here — can probe with no pointer
// chasing, while the Go side keeps ownership of marking, RED
// thresholds, and rotation.
//
// The export is a single contiguous buffer of 64-bit words: a header
// carrying the full filter geometry (k, n, m, hash construction, scheme
// and layout, hole punching), a directory of per-tenant sections keyed
// by route key and BMTM tenant-id hash, and per section a small header
// plus the raw bit-vector words of all k vectors. Coherence is by
// seqlock, not locking: each section has a generation word that its
// single writer makes odd before mutating and even after, and a reader
// retries whenever it observes an odd or changed generation — so a probe
// never sees a torn rotation (a current-index bump paired with a
// half-cleared vector). Steady-state publication is incremental: each
// vector keeps a dirty bit per 512-bit block, set when a mark adds a
// bit, and a publish compares and rewrites only the blocks marked since
// that section's last publish (bitvec.Vector.Sync), so export cost
// follows the blocks that changed, not the filter size. A vector the
// section cannot vouch for — its first publish, the vector a rotation
// cleared, a filter swapped in by a restore or a tenant rehydration, a
// vector another map synced since — is compared in full against the
// section's own words instead.
//
// Escalation contract: the fast path never drops. A probe either Hits
// (every relevant bit set — pass with no slow-path involvement) or
// Escalates (new flow, post-rotation re-mark, dead section, or a map
// lagging the filter); escalated packets travel a bounded MissRing to
// the Go slow path, whose verdict is authoritative. Staleness therefore
// only costs extra escalations, never a wrongly dropped packet.
package offload

import (
	"errors"
	"strconv"
	"sync/atomic"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/errfmt"
	"p2pbound/internal/hashes"
)

// Flat-map format constants. All offsets are in 64-bit words; the file
// serialization (WriteTo/OpenBytes) is the little-endian image of the
// word array.
const (
	// mapMagic spells "P2POFLD1" when the first word is written
	// little-endian.
	mapMagic   = 0x31444c464f503250
	mapVersion = 1
	// mapHash is the hash construction byte of the geometry word (bits
	// 40–47). The library has one construction, FNV-double, which the
	// format numbers 1; a reader rejects any other value.
	mapHash = 1

	// headerWords is the fixed map header: magic, version, packed
	// geometry, words per vector, section count, prefix bits, and two
	// reserved words.
	headerWords = 8
	// dirEntryWords is one directory entry: route key, BMTM tenant-id
	// hash, section offset in words.
	dirEntryWords = 3
	// sectionHeaderWords is one section header: generation (seqlock),
	// rotation count, current vector index, flags.
	sectionHeaderWords = 4

	hdrMagic    = 0
	hdrVersion  = 1
	hdrGeom     = 2
	hdrVecWords = 3
	hdrSections = 4
	hdrPrefix   = 5

	secGen       = 0
	secRotations = 1
	secCurIdx    = 2
	secFlags     = 3

	// flagLive marks a section whose tenant currently holds a hydrated
	// filter. A probe against a non-live section always escalates, so an
	// evicted tenant's stale bits are unreachable until rehydration
	// republishes them.
	flagLive = 1
)

// Geometry caps mirroring the snapshot caps in internal/core: a decode
// must bound what a hostile header can demand before validation.
const (
	maxMapK        = 1024
	maxMapM        = 1024
	maxMapSections = 1 << 20
)

// Typed decode sentinels, errors.Is-matchable through the errfmt detail
// wrappers (the same rejected-input discipline as core.ErrSnapshot*).
var (
	// ErrMapMagic rejects a buffer that is not a flat verdict map.
	ErrMapMagic = errors.New("offload: bad map magic")
	// ErrMapVersion rejects an unsupported format version.
	ErrMapVersion = errors.New("offload: unsupported map version")
	// ErrMapTruncated rejects a buffer whose length disagrees with the
	// geometry it declares.
	ErrMapTruncated = errors.New("offload: truncated map")
	// ErrMapGeometry rejects an implausible or inconsistent geometry.
	ErrMapGeometry = errors.New("offload: bad map geometry")
	// ErrMapCorrupt rejects a structurally invalid map: a directory
	// offset that disagrees with the layout, an out-of-range current
	// vector index, unknown section flags, or unsorted route keys.
	ErrMapCorrupt = errors.New("offload: corrupt map")
	// ErrMapTorn rejects a serialized map whose generation word is odd —
	// the image was taken mid-publish and may mix two rotations.
	ErrMapTorn = errors.New("offload: torn map generation")
	// ErrMapReadOnly rejects Publish on a map reconstructed by
	// OpenBytes: the image is a consumer's copy of another publisher's
	// map, whose readers would never see a write into the copy.
	ErrMapReadOnly = errors.New("offload: map is read-only")
)

// Geometry is the filter shape a flat map carries, self-describing
// enough for a consumer to derive the exact bit indexes the Go filter
// derives: index-derivation scheme, bit layout, and the hole-punch key
// mode all change which bits a socket pair maps to. The hash
// construction is fixed, and the map records it too (mapHash).
type Geometry struct {
	K         int
	NBits     uint
	M         int
	Scheme    hashes.Scheme
	Layout    hashes.Layout
	HolePunch bool
}

// GeometryOf extracts the resolved geometry of a core configuration.
// An unresolvable combination cannot have built a filter; its raw
// values are kept, and NewMap's validation reports them.
func GeometryOf(cfg core.Config) Geometry {
	cfg, _ = cfg.Resolve()
	return Geometry{
		K:         cfg.K,
		NBits:     cfg.NBits,
		M:         cfg.M,
		Scheme:    cfg.HashScheme,
		Layout:    cfg.Layout,
		HolePunch: cfg.HolePunch,
	}
}

// pack encodes the geometry into the single header word.
//
//p2p:codec offloadmap encode
func (g Geometry) pack() uint64 {
	w := uint64(uint16(g.K))
	w |= uint64(uint8(g.NBits)) << 16
	w |= uint64(uint16(g.M)) << 24
	w |= uint64(mapHash) << 40
	w |= uint64(uint8(g.Scheme)) << 48
	w |= uint64(uint8(g.Layout)) << 56 & (0xf << 56)
	if g.HolePunch {
		w |= 1 << 60
	}
	return w
}

// unpackGeometry decodes the geometry header word, rejecting a hash
// construction other than mapHash.
//
//p2p:codec offloadmap decode
func unpackGeometry(w uint64) (Geometry, error) {
	if h := uint8(w >> 40); h != mapHash {
		return Geometry{}, errfmt.Detail("offload: hash construction "+strconv.Itoa(int(h)), ErrMapGeometry)
	}
	return Geometry{
		K:         int(uint16(w)),
		NBits:     uint(uint8(w >> 16)),
		M:         int(uint16(w >> 24)),
		Scheme:    hashes.Scheme(uint8(w >> 48)),
		Layout:    hashes.Layout(uint8(w>>56) & 0xf),
		HolePunch: w&(1<<60) != 0,
	}, nil
}

// validate checks the geometry against the caps and core's own rules,
// returning the indexer a fast path probes with: the one the filter
// derives its marks with.
func (g Geometry) validate() (*core.Indexer, error) {
	if g.K < 1 || g.K > maxMapK {
		return nil, errfmt.Detail("offload: k="+strconv.Itoa(g.K), ErrMapGeometry)
	}
	if g.M < 1 || g.M > maxMapM {
		return nil, errfmt.Detail("offload: m="+strconv.Itoa(g.M), ErrMapGeometry)
	}
	if g.NBits < 1 || g.NBits > 32 {
		return nil, errfmt.Detail("offload: nbits="+strconv.FormatUint(uint64(g.NBits), 10), ErrMapGeometry)
	}
	cfg := core.Config{K: g.K, NBits: g.NBits, M: g.M, HashScheme: g.Scheme, Layout: g.Layout, HolePunch: g.HolePunch}
	if resolved, err := cfg.Resolve(); err != nil || resolved != cfg {
		// The map must carry the resolved values: a consumer cannot be
		// asked to re-run default resolution to know what to probe.
		return nil, errfmt.Detail("offload: scheme/layout", ErrMapGeometry)
	}
	ix, err := core.NewIndexer(cfg)
	if err != nil {
		return nil, errfmt.Detail("offload: "+err.Error(), ErrMapGeometry)
	}
	return ix, nil
}

// vecWords returns the number of 64-bit words per bit vector.
func (g Geometry) vecWords() int {
	n := (uint64(1)<<g.NBits + 63) / 64
	return int(n)
}

// Map is a flat verdict map: the publisher-side owner of the word
// buffer. The word array is shared with any in-process FastPath
// readers; every access to it — publisher stores, probe loads,
// serialization — is a sync/atomic word operation, so the seqlock
// protocol is also race-detector-clean.
type Map struct {
	words       []uint64
	geom        Geometry
	wordsPerVec int
	secWords    int
	prefixBits  int
	secs        []Section
	// opened marks a map reconstructed by OpenBytes: probe-only (see
	// ErrMapReadOnly).
	opened bool
}

// NewMap allocates a flat map for `sections` filter sections of the
// given geometry. prefixBits, when non-zero, declares that directory
// route keys are subscriber prefixes of that width (addr >>
// (32−prefixBits)), enabling routed section lookup; zero means the
// caller addresses sections by index (single-filter or per-shard use).
func NewMap(g Geometry, sections, prefixBits int) (*Map, error) {
	if _, err := g.validate(); err != nil {
		return nil, err
	}
	if sections < 1 || sections > maxMapSections {
		return nil, errfmt.Detail("offload: sections="+strconv.Itoa(sections), ErrMapGeometry)
	}
	if prefixBits < 0 || prefixBits > 32 {
		return nil, errfmt.Detail("offload: prefix bits="+strconv.Itoa(prefixBits), ErrMapGeometry)
	}
	wpv := g.vecWords()
	secWords := sectionHeaderWords + g.K*wpv
	total := headerWords + sections*dirEntryWords + sections*secWords
	m := &Map{
		words:       make([]uint64, total),
		geom:        g,
		wordsPerVec: wpv,
		secWords:    secWords,
		prefixBits:  prefixBits,
		secs:        make([]Section, sections),
	}
	m.words[hdrMagic] = mapMagic
	m.words[hdrVersion] = mapVersion
	m.words[hdrGeom] = g.pack()
	m.words[hdrVecWords] = uint64(wpv)
	m.words[hdrSections] = uint64(sections)
	m.words[hdrPrefix] = uint64(prefixBits)
	for i := range m.secs {
		base := m.sectionBase(i)
		m.words[headerWords+i*dirEntryWords+2] = uint64(base)
		m.secs[i] = Section{m: m, base: base}
	}
	return m, nil
}

// sectionBase returns the word offset of section i's header.
//
//p2p:hotpath
func (m *Map) sectionBase(i int) int {
	return headerWords + len(m.secs)*dirEntryWords + i*m.secWords
}

// Geometry returns the filter geometry the map carries.
func (m *Map) Geometry() Geometry { return m.geom }

// Sections returns the number of filter sections.
func (m *Map) Sections() int { return len(m.secs) }

// PrefixBits returns the subscriber prefix width of the directory route
// keys, or zero for an index-addressed map.
func (m *Map) PrefixBits() int { return m.prefixBits }

// Size returns the serialized size of the map in bytes.
func (m *Map) Size() int { return len(m.words) * 8 }

// Section returns the publisher handle for section i.
func (m *Map) Section(i int) *Section { return &m.secs[i] }

// SetSectionKey sets section i's directory entry: the route key a
// consumer looks sections up by (for a tenant map, the subscriber
// prefix shifted to prefixBits; for a shard map, the shard index) and
// the FNV-1a hash of the BMTM tenant id, which correlates the section
// with the tenant snapshot format across process boundaries. Call it
// during setup, before readers attach; routed lookup requires keys to
// be registered in ascending order.
func (m *Map) SetSectionKey(i int, key uint32, id string) {
	e := headerWords + i*dirEntryWords
	atomic.StoreUint64(&m.words[e], uint64(key))
	var h uint64
	if id != "" {
		h = hashes.FNV1a64([]byte(id))
	}
	atomic.StoreUint64(&m.words[e+1], h)
}

// SectionKey returns section i's directory route key and id hash.
func (m *Map) SectionKey(i int) (key uint32, idHash uint64) {
	e := headerWords + i*dirEntryWords
	return uint32(atomic.LoadUint64(&m.words[e])), atomic.LoadUint64(&m.words[e+1])
}

// Section publishes one filter into its slice of the map. All methods
// must be called from the filter's owning goroutine (the publisher is
// the single writer of the section's words); probes may run
// concurrently from any number of FastPath readers.
type Section struct {
	m    *Map
	base int
	// marks[i] records which vector, clear epoch and sync count the
	// words of vector i were last synced from (bitvec.SyncMark).
	// Allocated on the first Publish so consumer-side sections stay
	// lightweight.
	marks []bitvec.SyncMark
}

// Publish exports f's current state — rotation count, current vector
// index, and the logical contents of its k vectors — under the
// section's seqlock. The filter must match the map geometry. Publish
// runs on the filter's owning goroutine between packet batches; it
// holds no locks (readers are never blocked, they retry), and it stores
// only the words that changed.
//
// Each vector is synced with bitvec.Vector.Sync: when the vector is the
// one this section last synced, in the same clear epoch and with no
// sync by another section or wholesale rewrite since, only the 512-bit
// delta blocks marked since the last publish are compared, so the cost
// follows the blocks that changed, not the filter size. Otherwise —
// the first publish, the vector a rotation cleared, a filter swapped in
// by a restore or a tenant rehydration, or a vector another map synced
// — the vector's words are compared in full against the section's.
func (s *Section) Publish(f *core.Filter) error {
	m := s.m
	if m.opened {
		return ErrMapReadOnly
	}
	if g := GeometryOf(f.Config()); g != m.geom {
		return errfmt.Detail("offload: publish filter geometry != map geometry", ErrMapGeometry)
	}
	if s.marks == nil {
		s.marks = make([]bitvec.SyncMark, m.geom.K)
	}
	w := m.words
	gen := atomic.LoadUint64(&w[s.base+secGen])
	atomic.StoreUint64(&w[s.base+secGen], gen+1)
	atomic.StoreUint64(&w[s.base+secRotations], uint64(f.Rotations()))
	atomic.StoreUint64(&w[s.base+secCurIdx], uint64(f.Index()))
	atomic.StoreUint64(&w[s.base+secFlags], flagLive)
	var firstErr error
	for i := range s.marks {
		lo := s.base + sectionHeaderWords + i*m.wordsPerVec
		if err := f.Vector(i).Sync(w[lo:lo+m.wordsPerVec], &s.marks[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The generation goes even again on every path — a section left odd
	// would spin readers forever. On error the section content may lag
	// the filter, which the escalation contract already tolerates.
	atomic.StoreUint64(&w[s.base+secGen], gen+2)
	return firstErr
}

// SetLive publishes the section's liveness flag under the seqlock. A
// tenant manager marks a section dead when its tenant spills its
// filter: probes then escalate unconditionally, making the stale bits
// unreachable, until rehydration republishes and re-arms the flag.
func (s *Section) SetLive(live bool) {
	w := s.m.words
	gen := atomic.LoadUint64(&w[s.base+secGen])
	atomic.StoreUint64(&w[s.base+secGen], gen+1)
	var flags uint64
	if live {
		flags = flagLive
	}
	atomic.StoreUint64(&w[s.base+secFlags], flags)
	atomic.StoreUint64(&w[s.base+secGen], gen+2)
}

// Live reports the section's published liveness flag.
func (s *Section) Live() bool {
	return atomic.LoadUint64(&s.m.words[s.base+secFlags])&flagLive != 0
}

// Generation returns the section's current seqlock generation (even
// when stable, odd while a publish is in flight).
func (s *Section) Generation() uint64 {
	return atomic.LoadUint64(&s.m.words[s.base+secGen])
}
