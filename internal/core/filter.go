// Package core implements the paper's primary contribution: the
// {k×N}-bitmap filter of Section 4, a composite of k equal-size bloom
// filter bit vectors sharing m hash functions.
//
// Outbound packets mark their socket pair in all k bit vectors (so a flow
// stays admitted for between T_e − Δt and T_e = k·Δt after its last
// outbound packet); inbound packets are looked up in the current bit
// vector only; every Δt the b.rotate algorithm clears the oldest vector
// and makes it current. An inbound packet whose inverse socket pair is not
// marked is dropped with probability P_d supplied by the caller — in the
// full system, a RED-style ramp over the measured uplink throughput.
//
// All operations are constant time in the number of tracked connections;
// only the Δt-periodic rotation is O(N) in the vector size.
package core

import (
	"errors"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/errfmt"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// Verdict is the filtering decision for a packet.
type Verdict int

// Filtering decisions. Outbound packets are always passed; inbound packets
// may be dropped.
const (
	Pass Verdict = iota + 1
	Drop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Drop:
		return "DROP"
	default:
		return "verdict(" + strconv.Itoa(int(v)) + ")"
	}
}

// Config parameterizes a bitmap filter. The paper's simulation setup
// (Section 5.3) is NBits=20, K=4, DeltaT=5s, M=3: a 512 KiB filter with
// T_e = 20 s.
//
//p2p:codec
type Config struct {
	// K is the number of bit vectors (columns in Figure 7).
	K int
	// NBits is n: each bit vector holds N = 2^n bits.
	NBits uint
	// M is the number of shared hash functions.
	M int
	// DeltaT is the rotation period Δt.
	DeltaT time.Duration
	// HashScheme selects how the m indexes are derived per key: the
	// per-index family (zero value) or the one-shot 64-bit hash expanded
	// arithmetically (hashes.SchemeOneShot — one key traversal per
	// packet regardless of m). Snapshots record the resolved scheme.
	HashScheme hashes.Scheme
	// Layout selects where a key's m bits land: scattered across the
	// whole vector (zero value) or confined to one 512-bit cache line
	// (hashes.LayoutBlocked — at most one memory stall per vector
	// instead of m, for a bounded false-positive-rate increase; see
	// DESIGN.md §12). The blocked layout implies the one-shot scheme.
	Layout hashes.Layout
	// HolePunch enables partial-tuple hashing (remote port excluded) so
	// NAT hole punching keeps working behind the filter (Section 4.2).
	HolePunch bool
	// Seed seeds the deterministic random source used for P_d draws.
	Seed uint64
	// ReorderTolerance is the capture-reorder window for backward
	// timestamps. Real capture clocks regress — NTP steps, multi-queue
	// NICs delivering slightly out of order — so Advance never requires
	// monotonic input: a timestamp behind the monotonic high-water mark
	// is clamped to it, and only a regression larger than this window is
	// counted in Stats.TimeAnomalies. The default 0 counts every
	// backward step.
	//
	//p2p:codecskip operational knob, not filter identity — deliberately not persisted
	ReorderTolerance time.Duration
}

// Resolve returns c with a zero HashScheme and Layout replaced by the
// defaults they stand for (hashes.ResolveSchemeLayout), or c unchanged
// and an error when the combination is unknown or invalid. Filters,
// indexers, snapshots, offload maps and fleet fingerprints all record
// and compare resolved configurations, so a zero default and its
// explicit value always mean the same geometry.
func (c Config) Resolve() (Config, error) {
	scheme, layout, err := hashes.ResolveSchemeLayout(c.HashScheme, c.Layout)
	if err != nil {
		return c, errfmt.Wrap("core", err)
	}
	c.HashScheme, c.Layout = scheme, layout
	return c, nil
}

// DefaultConfig returns the paper's Section 5.3 configuration.
func DefaultConfig() Config {
	return Config{K: 4, NBits: 20, M: 3, DeltaT: 5 * time.Second}
}

// Stats counts filter activity since construction.
//
// Accounting invariant: every inspected inbound packet is classified as
// exactly one hit or one miss — InboundHits + InboundMisses ==
// InboundPackets. A packet that draws a drop on its first unmarked bit
// and one that survives several unmarked bits each contribute a single
// miss; Dropped ≤ InboundMisses counts the subset of misses that lost a
// P_d draw.
type Stats struct {
	OutboundPackets int64 // outbound packets marked and passed
	InboundPackets  int64 // inbound packets inspected
	InboundHits     int64 // inbound packets fully marked in the current vector
	InboundMisses   int64 // inbound packets with at least one unmarked bit
	Dropped         int64 // inbound packets dropped
	Rotations       int64 // b.rotate invocations
	// TimeAnomalies counts Advance calls whose timestamp regressed behind
	// the monotonic high-water mark by more than the configured
	// ReorderTolerance. Such timestamps are clamped, never propagated, so
	// the rotation schedule only moves forward.
	TimeAnomalies int64
}

// counters is the live storage behind Stats. Every field is an atomic so
// Stats can be snapshotted from a scrape or monitoring goroutine while
// the owning goroutine processes packets: each counter read is torn-free
// and monotone. The filter itself remains single-writer; the atomics buy
// concurrent readers, not concurrent writers.
type counters struct {
	outbound      atomic.Int64 //p2p:atomic
	inbound       atomic.Int64 //p2p:atomic
	hits          atomic.Int64 //p2p:atomic
	misses        atomic.Int64 //p2p:atomic
	dropped       atomic.Int64 //p2p:atomic
	rotations     atomic.Int64 //p2p:atomic
	timeAnomalies atomic.Int64 //p2p:atomic
}

// snapshot loads every counter into a Stats value.
func (c *counters) snapshot() Stats {
	return Stats{
		OutboundPackets: c.outbound.Load(),
		InboundPackets:  c.inbound.Load(),
		InboundHits:     c.hits.Load(),
		InboundMisses:   c.misses.Load(),
		Dropped:         c.dropped.Load(),
		Rotations:       c.rotations.Load(),
		TimeAnomalies:   c.timeAnomalies.Load(),
	}
}

// Filter is a {k×N}-bitmap filter. It is driven by simulated packet
// timestamps via Advance and is not safe for concurrent use; wrap it or
// shard per flow hash for multi-queue deployments.
type Filter struct {
	cfg     Config
	vectors []*bitvec.Vector
	idx     int // index of the current bit vector
	// ix derives each packet's m indexes; see Indexer.
	ix     Indexer
	layout hashes.Layout
	rng    *rand.Rand
	// pcg is the source behind rng, retained so suspend/resume paths can
	// marshal the exact draw position (RNGState); rand.Rand itself does
	// not expose its source.
	pcg *rand.PCG
	// sums is the per-packet index scratch of Process, Mark and
	// Contains: m entries.
	sums []uint32
	// pend accumulates the per-packet counter deltas of ProcessSums as
	// plain single-writer increments; FlushStats publishes them into the
	// atomic counters. Batching the publication turns up to two LOCK-
	// prefixed read-modify-writes per packet into a handful per chunk.
	pend struct {
		outbound, inbound, hits, misses, dropped int64
	}
	// bsums is the pass-A scratch of the two-pass batch path: the m
	// derived indexes of each packet in the current chunk, laid out
	// [i·m, i·m+m). Preallocated to BatchChunk·m at construction, so
	// HashBatch never grows it.
	bsums []uint32
	// touch gates pass A's advisory cache-line touches on the filter's
	// bit footprint (see TouchWorthwhile): when the vectors fit in the
	// last-level cache, the touches cannot hide any DRAM latency and are
	// pure extra loads, so small filters hash ahead without touching.
	touch bool
	// hashed is the number of packets pass A stored in bsums.
	hashed int
	// sweepVec is the index of the vector whose deferred clear is being
	// swept across packet calls, or −1 when no sweep is pending. Each
	// Process call advances the sweep by one block, bounding the
	// per-packet clearing work instead of paying the O(N) memclr of
	// Algorithm 1 inside a single packet decision.
	sweepVec int
	next     time.Duration // simulated time of the next rotation
	lastTS   time.Duration // monotonic high-water mark of Advance input
	started  bool
	stats    counters
}

// New builds a bitmap filter from cfg with heap-allocated bit vectors;
// NewWith selects a pooled allocator instead.
func New(cfg Config) (*Filter, error) {
	return newFilter(cfg, nil)
}

func newFilter(cfg Config, alloc VectorAllocator) (*Filter, error) {
	if cfg.K <= 0 {
		return nil, errors.New("core: K must be positive, got " + strconv.Itoa(cfg.K))
	}
	if cfg.NBits == 0 || cfg.NBits > 32 {
		return nil, errors.New("core: NBits must be in [1,32], got " + strconv.FormatUint(uint64(cfg.NBits), 10))
	}
	if cfg.M <= 0 {
		return nil, errors.New("core: M must be positive, got " + strconv.Itoa(cfg.M))
	}
	if cfg.DeltaT <= 0 {
		return nil, errors.New("core: DeltaT must be positive, got " + cfg.DeltaT.String())
	}
	// Keep the resolved values so Config() — and therefore snapshot
	// round-trips and geometry comparisons — never sees the ambiguous
	// zero defaults.
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	ix, err := newIndexer(cfg)
	if err != nil {
		return nil, err
	}
	vectors := make([]*bitvec.Vector, cfg.K)
	for i := range vectors {
		if alloc != nil {
			vectors[i] = alloc.NewVector(1 << cfg.NBits)
		} else {
			vectors[i] = bitvec.New(1 << cfg.NBits)
		}
	}
	pcg := rand.NewPCG(cfg.Seed, cfg.Seed^pcgStream)
	return &Filter{
		cfg:      cfg,
		vectors:  vectors,
		ix:       ix,
		layout:   cfg.Layout,
		pcg:      pcg,
		rng:      rand.New(pcg),
		sums:     make([]uint32, cfg.M),
		bsums:    make([]uint32, BatchChunk*cfg.M),
		touch:    TouchWorthwhile(int64(cfg.K) << cfg.NBits >> 3),
		sweepVec: -1,
	}, nil
}

// pcgStream is the second PCG seed word, derived from the first so a
// single Config.Seed selects the whole P_d draw stream.
const pcgStream = 0x9e3779b97f4a7c15

// TouchWorthwhile reports whether bit storage of footprint bytes is
// large enough for pass A's advisory line touches to pay: above
// touchMinBytes. A filter gates on its own vectors; a tenant manager,
// whose subscribers' filters share one arena per shard, gates on the
// arena.
func TouchWorthwhile(footprint int64) bool { return footprint > touchMinBytes }

// touchMinBytes is the bit-vector footprint above which pass A of the
// two-pass batch path issues its advisory line touches. Below it the
// vectors are resident in any mainstream last-level cache, the out-of-
// order window already hides the (hit) latency of pass B's accesses,
// and the touches are measurably pure overhead; above it the batch of
// independent line fills is what keeps the filter off the DRAM latency
// critical path.
const touchMinBytes = 16 << 20

// Config returns the filter's configuration.
func (f *Filter) Config() Config { return f.cfg }

// HashScheme returns the resolved index-derivation scheme (never zero).
func (f *Filter) HashScheme() hashes.Scheme { return f.cfg.HashScheme }

// Layout returns the resolved bit layout (never zero).
func (f *Filter) Layout() hashes.Layout { return f.layout }

// SetReorderTolerance adjusts the backward-timestamp tolerance window
// (see Config.ReorderTolerance). It is an operational knob, not filter
// state: snapshots do not carry it, so restore paths reapply it.
func (f *Filter) SetReorderTolerance(d time.Duration) {
	f.cfg.ReorderTolerance = d
}

// TE returns the effective expiry timer T_e = k·Δt (Section 4.3).
func (f *Filter) TE() time.Duration {
	return f.cfg.DeltaT * time.Duration(f.cfg.K)
}

// Bytes returns the memory footprint of the bitmap, (k×N)/8 bytes.
func (f *Filter) Bytes() int {
	return f.cfg.K * f.vectors[0].Bytes()
}

// Stats returns a snapshot of the activity counters. It may be called
// from any goroutine, concurrently with packet processing: each counter
// is loaded atomically, so individual values are never torn and only
// ever increase.
func (f *Filter) Stats() Stats { return f.stats.snapshot() }

// Rotations returns the vector-rotation count alone — the filter's epoch,
// cheap enough to read per sampled decision trace.
//
//p2p:hotpath
func (f *Filter) Rotations() int64 { return f.stats.rotations.Load() }

// Utilization returns the marked-bit fraction of the current bit vector,
// the U = b/N of Equation 2.
//
//p2p:hotpath
func (f *Filter) Utilization() float64 {
	return f.vectors[f.idx].Utilization()
}

// VectorCount returns k, the number of bit vectors.
func (f *Filter) VectorCount() int { return f.cfg.K }

// Vector returns the i-th bit vector. This is the replication layer's
// cold-path window into the bitmap: delta export, OR-merge, and digest
// computation (internal/replica) operate on the vectors directly.
// Callers must honour the filter's single-writer discipline — sync
// work runs on the owning goroutine, between packet batches — and must
// only ever add bits (union merge), so replicated state stays a
// superset and false negatives remain structurally impossible.
func (f *Filter) Vector(i int) *bitvec.Vector { return f.vectors[i] }

// Index returns the index of the current (lookup) bit vector.
func (f *Filter) Index() int { return f.idx }

// AlignRotations fast-forwards the filter to a peer's rotation count
// (the fleet epoch), performing the rotations the local clock has not
// yet driven. The fleet convention derives each vector's generation
// from the count alone, so replicas that processed different local
// timelines still agree on which vector holds which age of marks. A
// jump of k or more takes the same clear-everything path as an idle
// gap — a fail-closed wipe the anti-entropy exchange then repairs from
// peers. A target at or behind the current count is a no-op: epochs,
// like timestamps, only move forward.
func (f *Filter) AlignRotations(target int64) {
	cur := f.stats.rotations.Load()
	if target <= cur {
		return
	}
	due := target - cur
	if due >= int64(f.cfg.K) {
		for _, v := range f.vectors {
			v.Clear()
		}
		f.idx = int((int64(f.idx) + due) % int64(f.cfg.K))
		f.sweepVec = f.idx
		f.stats.rotations.Add(due)
		if f.started {
			f.next += time.Duration(due) * f.cfg.DeltaT
		}
		return
	}
	for ; due > 0; due-- {
		f.Rotate()
		if f.started {
			f.next += f.cfg.DeltaT
		}
	}
}

// AlignIndex re-anchors the current-vector index to the fleet
// convention idx ≡ rotations (mod K). A fresh filter satisfies it by
// construction and Rotate preserves it, but a snapshot restore resets
// the rotation count to zero while keeping the stored index, and no
// amount of forward rotation can repair the skew (rotating advances
// both sides together). Re-anchoring relabels which vector is
// "current" without clearing anything: vector ages are scrambled for
// at most K rotations, which can only add false positives — marks are
// never invented — and a replica attaching afterwards stays
// fail-closed until anti-entropy digests match anyway.
func (f *Filter) AlignIndex() {
	want := int(f.stats.rotations.Load() % int64(f.cfg.K))
	if f.idx == want {
		return
	}
	// The deferred clear (sweepVec) keeps materializing whichever
	// vector it was already on; relabeling does not change contents.
	f.idx = want
}

// Advance performs every rotation due at simulated time ts; the replay
// engine calls it once per packet. Timestamps need not be monotonic: a
// backward timestamp is clamped to the high-water mark of all previous
// calls (counting in Stats.TimeAnomalies when the regression exceeds
// Config.ReorderTolerance), so the rotation schedule never runs
// backwards even when the capture clock does. An idle gap spanning k or
// more rotation periods takes the O(k) fast path — every vector is
// cleared and the index repositioned — instead of rotating period by
// period through the gap.
//
//p2p:hotpath
func (f *Filter) Advance(ts time.Duration) {
	if f.started && ts >= f.lastTS && ts < f.next {
		// Steady state: time moved forward within the current rotation
		// period. Kept tiny so the once-per-packet call inlines; first
		// call, clock regressions, and due rotations take the outlined
		// slow path.
		f.lastTS = ts
		return
	}
	f.advanceSlow(ts)
}

//p2p:hotpath
func (f *Filter) advanceSlow(ts time.Duration) {
	if !f.started {
		f.started = true
		f.lastTS = ts
		f.next = ts - ts%f.cfg.DeltaT + f.cfg.DeltaT
		return
	}
	if ts < f.lastTS {
		if f.lastTS-ts > f.cfg.ReorderTolerance {
			f.stats.timeAnomalies.Add(1)
		}
		ts = f.lastTS
	} else {
		f.lastTS = ts
	}
	if ts < f.next {
		return
	}
	due := int64((ts-f.next)/f.cfg.DeltaT) + 1
	if due >= int64(f.cfg.K) {
		for _, v := range f.vectors {
			v.Clear()
		}
		f.idx = int((int64(f.idx) + due) % int64(f.cfg.K))
		// All vectors are freshly cleared; sweep the one that is about
		// to collect the longest-lived marks (the new current vector).
		f.sweepVec = f.idx
		f.stats.rotations.Add(due)
		f.next += time.Duration(due) * f.cfg.DeltaT
		return
	}
	for ts >= f.next {
		f.Rotate()
		f.next += f.cfg.DeltaT
	}
}

// Rotate implements Algorithm 1 (the timer handler b.rotate): the vector
// that was current becomes "last" and is cleared, and the index advances
// to the next bit vector, which — having been cleared k rotations ago and
// marked by every outbound packet since — carries the marks of the
// previous k−1 periods. A flow therefore stays admitted for between
// (k−1)·Δt and k·Δt after its last outbound packet.
//
// The clear is logical and O(1): the vector's epoch advances and the
// physical memclr is deferred, swept one block per subsequent Process
// call. Reads and writes against the cleared vector observe all-zero
// immediately (see bitvec), so rotation no longer injects an O(N)
// latency spike into the packet decision that triggered it.
//
//p2p:hotpath
func (f *Filter) Rotate() {
	last := f.idx
	f.idx = (f.idx + 1) % f.cfg.K
	f.vectors[last].Clear()
	f.sweepVec = last
	f.stats.rotations.Add(1)
}

// stepSweep advances the deferred clear of the most recently rotated
// vector by one block (a bounded, cache-friendly memclr unit), retiring
// the sweep once the vector is fully materialized.
//
//p2p:hotpath
func (f *Filter) stepSweep() {
	if f.sweepVec >= 0 && f.vectors[f.sweepVec].StepClear(1) {
		f.sweepVec = -1
	}
}

// Process implements Algorithm 2 (the filtering function b.filter) for one
// packet, with the conditional dropping probability pd supplied by the
// caller. Outbound packets mark all bit vectors and pass; inbound packets
// are looked up in the current bit vector and each unmarked bit triggers an
// independent P_d drop draw, exactly as in the paper's pseudocode.
//
// Miss accounting: a packet contributes exactly one InboundHits or one
// InboundMisses increment — the drop path that returns early on the
// first losing draw and the survive path that walked every unmarked bit
// both record a single miss, preserving InboundHits + InboundMisses ==
// InboundPackets (see Stats).
//
//p2p:hotpath
func (f *Filter) Process(pkt *packet.Packet, pd float64) Verdict {
	v := f.ProcessSums(pkt, f.Sums(pkt), pd)
	f.FlushStats()
	return v
}

// Sums derives pkt's m indexes into the filter's per-packet scratch and
// returns it; the slice is valid until the next Sums, Process, Mark or
// Contains call.
//
//p2p:hotpath
func (f *Filter) Sums(pkt *packet.Packet) []uint32 {
	f.ix.Into(f.sums, pkt.Pair, pkt.Dir)
	return f.sums
}

// ProcessSums is pass B of the packet decision: Algorithm 2 over
// already-derived indexes (Sums, Hashed, or an Indexer shared by many
// filters). Process, ProcessBatch and every Limiter path decide
// through it, so they make bit-identical decisions and draw from the
// rng in the same order. Counter deltas stay pending until FlushStats.
//
//p2p:hotpath
func (f *Filter) ProcessSums(pkt *packet.Packet, sums []uint32, pd float64) Verdict {
	f.stepSweep()
	if pkt.Dir == packet.Outbound {
		f.pend.outbound++
		f.markSums(sums)
		return Pass
	}
	f.pend.inbound++
	cur := f.vectors[f.idx]
	if f.layout == hashes.LayoutBlocked && cur.GetAligned(sums) {
		// Fast path for the blocked layout: the whole group reads from
		// one line, so a full match needs no per-bit epoch checks. A
		// partial match falls through to the per-bit loop below, which
		// draws from the rng exactly as the classic path does.
		f.pend.hits++
		return Pass
	}
	miss := false
	for _, h := range sums {
		if cur.Get(h) {
			continue
		}
		miss = true
		if pd > 0 && f.rng.Float64() < pd {
			f.pend.misses++
			f.pend.dropped++
			return Drop
		}
	}
	if miss {
		f.pend.misses++
	} else {
		f.pend.hits++
	}
	return Pass
}

// FlushStats publishes the counter deltas accumulated since the last
// flush into the atomic counters Stats reads. Process flushes itself;
// callers driving the two-pass batch API (HashBatch/ProcessSums)
// directly must call it once per chunk — ProcessBatch does. Until the
// flush, pending deltas are invisible to concurrent Stats readers,
// which only weakens a snapshot by at most one chunk of packets.
//
//p2p:hotpath
func (f *Filter) FlushStats() {
	if f.pend.outbound != 0 {
		f.stats.outbound.Add(f.pend.outbound)
		f.pend.outbound = 0
	}
	if f.pend.inbound != 0 {
		f.stats.inbound.Add(f.pend.inbound)
		f.pend.inbound = 0
	}
	if f.pend.hits != 0 {
		f.stats.hits.Add(f.pend.hits)
		f.pend.hits = 0
	}
	if f.pend.misses != 0 {
		f.stats.misses.Add(f.pend.misses)
		f.pend.misses = 0
	}
	if f.pend.dropped != 0 {
		f.stats.dropped.Add(f.pend.dropped)
		f.pend.dropped = 0
	}
}

// Mark records an outbound socket pair in all k bit vectors.
//
//p2p:hotpath
func (f *Filter) Mark(pair packet.SocketPair) {
	f.ix.Into(f.sums, pair, packet.Outbound)
	f.markSums(f.sums)
}

// markSums sets the derived indexes in all k bit vectors. In the
// blocked layout the per-vector group shares one cache line, so the set
// fan-out costs one potential memory stall per vector instead of m.
//
//p2p:hotpath
func (f *Filter) markSums(sums []uint32) {
	if f.layout == hashes.LayoutBlocked {
		for _, v := range f.vectors {
			v.SetAligned(sums)
		}
		return
	}
	for _, h := range sums {
		for _, v := range f.vectors {
			v.Set(h)
		}
	}
}

// Contains reports whether every hash bit of the inverse of an inbound
// socket pair is marked in the current bit vector — i.e. whether an inbound
// packet with this pair would be admitted unconditionally.
//
//p2p:hotpath
func (f *Filter) Contains(inboundPair packet.SocketPair) bool {
	f.ix.Into(f.sums, inboundPair, packet.Inbound)
	cur := f.vectors[f.idx]
	if f.layout == hashes.LayoutBlocked {
		return cur.GetAligned(f.sums)
	}
	for _, h := range f.sums {
		if !cur.Get(h) {
			return false
		}
	}
	return true
}

// BatchChunk is the pass-A window of the two-pass batch path: the
// number of packets whose indexes are derived and whose target cache
// lines are touched ahead of the decision loop. Large enough that the
// independent line fills of a chunk overlap deeply in the memory
// subsystem, small enough that the scratch (BatchChunk·m indexes) and
// the touched lines stay resident until pass B consumes them.
const BatchChunk = 64

// HashBatch is pass A: it derives the indexes of up to BatchChunk
// packets into the filter's preallocated scratch and touches each
// packet's target cache lines, returning the number of packets hashed.
// Index derivation depends only on key bytes and configuration — never
// on rotation state — so hashing ahead of the per-packet Advance in
// pass B cannot change any decision; the touches are advisory loads
// (never writes), so a rotation between the passes at worst wastes a
// prefetch. Callers run the two passes back to back per chunk:
//
//	n := f.HashBatch(pkts)
//	for i := 0; i < n; i++ {
//		f.Advance(pkts[i].TS)
//		dst = append(dst, f.ProcessSums(&pkts[i], f.Hashed(i), pd))
//	}
//	f.FlushStats()
//
//p2p:hotpath
func (f *Filter) HashBatch(pkts []packet.Packet) int {
	n := min(len(pkts), BatchChunk)
	f.ix.Derive(f.bsums, pkts[:n])
	if f.touch {
		m := f.cfg.M
		for i := 0; i < n; i++ {
			f.TouchLines(f.bsums[i*m:i*m+m], pkts[i].Dir == packet.Outbound)
		}
	}
	f.hashed = n
	return n
}

// Hashed returns the indexes HashBatch derived for the i-th packet of
// its chunk.
//
//p2p:hotpath
func (f *Filter) Hashed(i int) []uint32 {
	m := f.cfg.M
	return f.bsums[i*m : i*m+m]
}

// TouchLines loads the bit lines a decision over sums will read or
// write — every vector's for an outbound mark, the current vector's
// for an inbound lookup — without changing any state, so that the line
// fills of many packets overlap ahead of their decisions.
//
//p2p:hotpath
func (f *Filter) TouchLines(sums []uint32, outbound bool) {
	if f.layout == hashes.LayoutBlocked {
		// All m bits share one line per vector; one touch covers them.
		sums = sums[:1]
	}
	if outbound {
		for _, v := range f.vectors {
			for _, h := range sums {
				v.Touch(h)
			}
		}
		return
	}
	cur := f.vectors[f.idx]
	for _, h := range sums {
		cur.Touch(h)
	}
}

// Headers loads the state a decision reads before its bit lines — the
// rotation schedule, pending counters and every vector's header — and
// returns a value derived from it, which the caller folds into a sink
// so the loads stay. A batch kernel deciding across many filters calls
// it for a chunk of packets in a row, so that their misses overlap.
//
//p2p:hotpath
func (f *Filter) Headers() uint64 {
	s := uint64(f.lastTS) + uint64(f.next) + uint64(f.pend.inbound) + uint64(f.cfg.DeltaT)
	for _, v := range f.vectors {
		s += v.Header()
	}
	return s
}

// ProcessBatch runs Advance and Process over a timestamp-sorted slice of
// packets with one constant dropping probability, appending one verdict
// per packet to dst and returning the extended slice. Passing a reusable
// dst[:0] keeps the batch path allocation-free. It is the replay/batch
// form of the per-packet loop: the rotation check amortizes to a single
// comparison per packet and the caller evaluates P_d once per batch
// instead of once per packet (appropriate whenever the throughput meter
// feeding P_d is updated at batch granularity, as in trace replay).
//
// Internally the batch is decided in two passes per BatchChunk window —
// hash-and-touch, then test-and-set — so the random cache-line fills of
// independent packets overlap instead of serializing; verdicts and
// counters are identical to the one-packet-at-a-time loop (see
// HashBatch for why the split is safe under rotation).
func (f *Filter) ProcessBatch(pkts []packet.Packet, pd float64, dst []Verdict) []Verdict {
	for len(pkts) > 0 {
		n := f.HashBatch(pkts)
		for i := 0; i < n; i++ {
			f.Advance(pkts[i].TS)
			dst = append(dst, f.ProcessSums(&pkts[i], f.Hashed(i), pd))
		}
		f.FlushStats()
		pkts = pkts[n:]
	}
	return dst
}
