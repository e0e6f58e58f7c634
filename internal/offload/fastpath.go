package offload

import (
	"sync/atomic"

	"p2pbound/internal/core"
	"p2pbound/internal/packet"
)

// Verdict is a fast-path probe result. The fast path never drops: it
// either admits a packet on its own (Hit) or hands it to the Go slow
// path (Escalate), whose decision — including the RED P_d draw — is
// authoritative.
type Verdict uint8

// Fast-path verdicts.
const (
	// Hit: every relevant bit is set in the published map — an inbound
	// packet of a tracked flow (all m bits in the current vector), or an
	// outbound packet whose marks are already present in all k vectors
	// and needs no re-marking. Pass without slow-path involvement.
	Hit Verdict = iota + 1
	// Escalate: at least one bit is missing, or the section is not
	// live. The packet must travel the miss ring to the slow path.
	Escalate
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Hit:
		return "HIT"
	case Escalate:
		return "ESCALATE"
	default:
		return "verdict(?)"
	}
}

// FastPath answers mark/verdict probes from a flat map and nothing
// else — it models the kernel-side stage of the two-tier split, which
// has the map words and the geometry header but no access to the Go
// filter, its meter, or its rng. A FastPath is owned by one probing
// goroutine (its indexer carries key-encoding scratch); run one per
// consumer. Any number of FastPaths may read the same Map concurrently
// with its publisher.
type FastPath struct {
	m  *Map
	ix *core.Indexer
	// sums is the per-probe index scratch: m entries.
	sums  []uint32
	k     int
	wpv   int
	shift uint

	// Probe accounting, owned by the probing goroutine; read them from
	// the same goroutine or after it stops.
	hits        uint64
	escalations uint64
	retries     uint64
}

// NewFastPath builds a prober over m. Its core.Indexer is built purely
// from the map's geometry header — the same information a kernel
// consumer would read — so probe indexes are derived by the very code
// the publishing filter derives its marks with.
func NewFastPath(m *Map) (*FastPath, error) {
	ix, err := m.geom.validate()
	if err != nil {
		return nil, err
	}
	return &FastPath{
		m:     m,
		ix:    ix,
		sums:  make([]uint32, m.geom.M),
		k:     m.geom.K,
		wpv:   m.wordsPerVec,
		shift: uint(32 - m.prefixBits),
	}, nil
}

// Map returns the flat map the prober reads.
func (fp *FastPath) Map() *Map { return fp.m }

// Hits returns the number of probes answered Hit.
func (fp *FastPath) Hits() uint64 { return fp.hits }

// Escalations returns the number of probes answered Escalate.
func (fp *FastPath) Escalations() uint64 { return fp.escalations }

// Retries returns the number of seqlock retries across all probes — a
// measure of publisher/reader collision, not of errors.
func (fp *FastPath) Retries() uint64 { return fp.retries }

// SectionFor routes a packet to its map section by directory key:
// source prefix first (the outbound view, matching TenantManager.route
// and packet.Classify's source preference), then destination. Returns
// −1 when neither prefix is registered. An index-addressed map
// (PrefixBits 0) always routes to section 0.
//
//p2p:hotpath
func (fp *FastPath) SectionFor(pair packet.SocketPair) int {
	if fp.m.prefixBits == 0 {
		return 0
	}
	if s := fp.lookup(uint32(pair.SrcAddr) >> fp.shift); s >= 0 {
		return s
	}
	return fp.lookup(uint32(pair.DstAddr) >> fp.shift)
}

// lookup binary-searches the directory (sorted ascending by route key)
// for key.
//
//p2p:hotpath
func (fp *FastPath) lookup(key uint32) int {
	w := fp.m.words
	lo, hi := 0, len(fp.m.secs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint32(atomic.LoadUint64(&w[headerWords+mid*dirEntryWords])) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fp.m.secs) && uint32(atomic.LoadUint64(&w[headerWords+lo*dirEntryWords])) == key {
		return lo
	}
	return -1
}

// Probe answers a verdict probe against section 0 — the single-filter
// form of ProbeSection.
//
//p2p:hotpath
func (fp *FastPath) Probe(pair packet.SocketPair, dir packet.Direction) Verdict {
	v, _ := fp.ProbeSectionTagged(0, pair, dir)
	return v
}

// ProbeSection answers a verdict probe against section sec.
//
//p2p:hotpath
func (fp *FastPath) ProbeSection(sec int, pair packet.SocketPair, dir packet.Direction) Verdict {
	v, _ := fp.ProbeSectionTagged(sec, pair, dir)
	return v
}

// ProbeSectionTagged is ProbeSection returning also the (even) seqlock
// generation the verdict was computed under: the whole probe — flags,
// current index, every bit load — happened between two reads of that
// generation, so the verdict is guaranteed to reflect a single
// published state, never a mix of two rotations. The race proofs key
// their expected-verdict tables on it.
//
//p2p:hotpath
func (fp *FastPath) ProbeSectionTagged(sec int, pair packet.SocketPair, dir packet.Direction) (Verdict, uint64) {
	// Index derivation is generation-independent (pure function of key
	// bytes and geometry), so it happens once, outside the retry loop.
	// Inbound packets probe the inverse tuple σ̄, exactly as the filter
	// does.
	fp.ix.Into(fp.sums, pair, dir)
	w := fp.m.words
	base := fp.m.sectionBase(sec)
	for {
		g1 := atomic.LoadUint64(&w[base+secGen])
		if g1&1 != 0 {
			// A publish is in flight; spin until it lands. Publication
			// is bounded, lock-free work between packet batches, so the
			// window is microseconds.
			fp.retries++
			continue
		}
		v := fp.probeOnce(base, dir)
		if atomic.LoadUint64(&w[base+secGen]) == g1 {
			if v == Hit {
				fp.hits++
			} else {
				fp.escalations++
			}
			return v, g1
		}
		fp.retries++
	}
}

// probeOnce computes a candidate verdict from the section's current
// words. The caller validates the seqlock generation around it; any
// value read here may be torn and is therefore range-guarded before
// use, and the result is discarded on generation mismatch.
//
//p2p:hotpath
func (fp *FastPath) probeOnce(base int, dir packet.Direction) Verdict {
	w := fp.m.words
	if atomic.LoadUint64(&w[base+secFlags])&flagLive == 0 {
		return Escalate
	}
	if dir == packet.Outbound {
		// Outbound: pass without escalation only if the flow is already
		// marked in all k vectors — then the slow-path re-mark would be
		// a no-op. A fresh flow, or one whose newest vector was cleared
		// by rotation, escalates so the slow path re-marks it.
		for v := 0; v < fp.k; v++ {
			vecBase := base + sectionHeaderWords + v*fp.wpv
			for _, h := range fp.sums {
				if atomic.LoadUint64(&w[vecBase+int(h/64)])&(1<<(h%64)) == 0 {
					return Escalate
				}
			}
		}
		return Hit
	}
	cur := atomic.LoadUint64(&w[base+secCurIdx])
	if cur >= uint64(fp.k) {
		// Torn or hostile index: never read out of the section. The
		// generation check will retry a torn read; a corrupt map simply
		// escalates everything.
		return Escalate
	}
	vecBase := base + sectionHeaderWords + int(cur)*fp.wpv
	for _, h := range fp.sums {
		if atomic.LoadUint64(&w[vecBase+int(h/64)])&(1<<(h%64)) == 0 {
			return Escalate
		}
	}
	return Hit
}
