// Package p2pbound bounds peer-to-peer upload traffic in client networks
// without inspecting packet payloads, implementing the bitmap filter of
// Huang & Lei, "Bounding Peer-to-Peer Upload Traffic in Client Networks"
// (DSN 2007).
//
// A Limiter is installed at the edge of a client network (an edge or core
// router of Figure 6) and sees every packet's five tuple, direction, and
// size. Outbound packets are always passed and mark their socket pair in a
// {k×N}-bitmap of rotating bloom filters; inbound packets that match a
// recently seen outbound socket pair are passed, while unmatched inbound
// packets are dropped with a probability that ramps from 0 to 1 as the
// measured uplink throughput climbs from a low to a high threshold.
// Because P2P upload traffic is predominantly triggered by inbound
// requests, throttling unmatched inbound packets bounds the upload
// bandwidth P2P applications can consume while leaving client-initiated
// traffic untouched — all in constant memory and constant time per packet.
//
// Basic usage:
//
//	limiter, err := p2pbound.New(p2pbound.Config{
//		ClientNetwork: "140.112.0.0/16",
//		LowMbps:       50,
//		HighMbps:      100,
//	})
//	...
//	switch limiter.Process(pkt) {
//	case p2pbound.Pass: // forward the packet
//	case p2pbound.Drop: // discard it
//	}
package p2pbound

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
	"p2pbound/internal/red"
)

// Protocol is an IP transport protocol.
type Protocol uint8

// Transport protocols the limiter filters. Other protocols should be
// handled by a conventional policy outside the limiter.
const (
	TCP Protocol = 6
	UDP Protocol = 17
)

// Decision is the limiter's verdict for a packet.
type Decision int

// Verdicts. Outbound packets always Pass.
const (
	Pass Decision = iota + 1
	Drop
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Pass:
		return "PASS"
	case Drop:
		return "DROP"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// HashScheme names how the m filter indexes are derived per packet.
// The layout selects it: HashPerIndex for LayoutClassic and HashOneShot
// for LayoutBlocked. A zero HashScheme means the layout's scheme; a
// nonzero one must agree with the layout, or New rejects the
// configuration.
type HashScheme int

// Hash schemes.
const (
	// HashPerIndex runs m independent hash computations per key — the
	// paper's construction, and the classic layout's scheme.
	HashPerIndex HashScheme = iota + 1
	// HashOneShot hashes each key once into 64 bits and derives all m
	// indexes arithmetically, so per-packet hash cost is independent of
	// m. It is the blocked layout's scheme.
	HashOneShot
)

// Layout selects where a key's m bits land in each bit vector.
type Layout int

// Bit layouts. The zero value selects LayoutClassic.
const (
	// LayoutClassic scatters the m bits across the whole vector.
	LayoutClassic Layout = iota + 1
	// LayoutBlocked confines each key's m bits to one 512-bit cache
	// line per vector, cutting the per-packet memory stalls from m·k to
	// k at production table sizes, for a bounded false-positive-rate
	// increase (see DESIGN.md §12). Derives with HashOneShot.
	LayoutBlocked
)

// Packet is one observed packet. Timestamp is an offset from any fixed
// origin (trace start, limiter start); the limiter is driven entirely by
// these timestamps, so replayed traces behave identically to live traffic.
type Packet struct {
	Timestamp time.Duration
	Protocol  Protocol
	SrcAddr   netip.Addr
	SrcPort   uint16
	DstAddr   netip.Addr
	DstPort   uint16
	// Size is the packet's total length in bytes, used for throughput
	// accounting.
	Size int
}

// record is a packet as the library carries it behind the public
// Packet: 32 bytes with no pointers, so executor rings, staging
// buffers and worker batches copy it cheaply and the garbage collector
// never scans them. The executor's submit calls and the ingest paths
// convert each packet once; deciders fill their chunk scratch from
// records without touching netip. A record has no direction: a Limiter
// classifies against its own client network, and a tenant's direction
// follows from which address routed.
type record struct {
	ts           time.Duration
	size         int
	src, dst     packet.Addr
	sport, dport uint16
	proto        packet.Proto
	// v4 reports that both addresses are IPv4; a record without it has
	// zero addresses and is unroutable.
	v4 bool
}

// fromPublic sets r from a public packet. A non-IPv4 address on either
// side (IPv6, IPv4-mapped IPv6, or the zero Addr) gives an unroutable
// record. The setters store field by field through the pointer: a
// record built in a local and copied out is stored in pieces and
// reloaded whole, which stalls store-to-load forwarding.
//
//p2p:hotpath
func (r *record) fromPublic(p *Packet) {
	r.ts = p.Timestamp
	r.size = p.Size
	r.sport, r.dport = p.SrcPort, p.DstPort
	r.proto = packet.Proto(p.Protocol)
	r.src, r.dst, r.v4 = 0, 0, false
	if p.SrcAddr.Is4() && p.DstAddr.Is4() {
		s, d := p.SrcAddr.As4(), p.DstAddr.As4()
		r.src = packet.AddrFrom4(s[0], s[1], s[2], s[3])
		r.dst = packet.AddrFrom4(d[0], d[1], d[2], d[3])
		r.v4 = true
	}
}

// fromDecoded sets r from a decoded (always IPv4) packet.
//
//p2p:hotpath
func (r *record) fromDecoded(p *packet.Packet) {
	r.ts = p.TS
	r.size = p.Len
	r.src, r.dst = p.Pair.SrcAddr, p.Pair.DstAddr
	r.sport, r.dport = p.Pair.SrcPort, p.Pair.DstPort
	r.proto = p.Pair.Proto
	r.v4 = true
}

// unpack writes r into a decider's chunk scratch with direction dir.
// Flags and Payload are left alone: no decider reads them.
//
//p2p:hotpath
func (r *record) unpack(dst *packet.Packet, dir packet.Direction) {
	dst.TS = r.ts
	dst.Pair.Proto = r.proto
	dst.Pair.SrcAddr, dst.Pair.SrcPort = r.src, r.sport
	dst.Pair.DstAddr, dst.Pair.DstPort = r.dst, r.dport
	dst.Dir = dir
	dst.Len = r.size
}

// Config parameterizes a Limiter. The zero value of every optional field
// selects the paper's evaluation settings.
type Config struct {
	// ClientNetwork is the CIDR prefix of the protected client network;
	// packets sourced inside it are outbound. Required.
	ClientNetwork string

	// LowMbps and HighMbps are the RED-style thresholds of Equation 1:
	// below LowMbps of uplink throughput no unmatched inbound packet is
	// dropped; above HighMbps all are. Defaults: 50 and 100, the paper's
	// Figure 9 configuration.
	LowMbps  float64
	HighMbps float64

	// Vectors is k, the number of bloom-filter bit vectors (default 4).
	Vectors int
	// VectorBits is n: each bit vector holds 2^n bits (default 20, i.e.
	// 1 Mbit per vector — a 512 KiB filter at k=4).
	VectorBits uint
	// HashFunctions is m, the number of shared hash functions
	// (default 3).
	HashFunctions int
	// RotateEvery is Δt, the rotation period (default 5 s). Together
	// with Vectors it sets the expiry horizon T_e = k·Δt.
	RotateEvery time.Duration

	// HashScheme names how the m indexes are derived from each key. The
	// layout selects it (HashPerIndex, the paper's construction, for
	// LayoutClassic; HashOneShot for LayoutBlocked), so leave it zero; a
	// nonzero value must agree with Layout.
	HashScheme HashScheme
	// Layout selects where a key's m bits land in each vector (default
	// LayoutClassic; LayoutBlocked confines them to one cache line).
	// Snapshots record the layout and its scheme, so restores across a
	// layout change are rejected like any other geometry mismatch.
	Layout Layout

	// HolePunch hashes partial tuples (remote port excluded) so NAT
	// hole punching keeps working behind the limiter.
	HolePunch bool

	// MeterWindow is the uplink throughput averaging window feeding the
	// drop probability (default 5 s).
	MeterWindow time.Duration

	// Seed makes the probabilistic drop decisions reproducible.
	Seed uint64

	// ReorderTolerance is the capture-reorder window for backward
	// timestamps. The limiter never requires monotonic input: a packet
	// timestamped behind the high-water mark of previous packets is
	// processed against clamped (high-water) time, and only a regression
	// larger than this window counts in Stats.TimeAnomalies. The default
	// 0 counts every backward step. Small values (a few ms) absorb
	// multi-queue NIC reordering; the clamp itself is unconditional.
	ReorderTolerance time.Duration

	// Telemetry, when non-nil, attaches the limiter to a metrics registry:
	// every counter in Stats, the current P_d, and the uplink rate become
	// scrapeable series (see Telemetry). Shards built through NewSharded or
	// NewPipeline attach in shard order and carry a shard label. Nil keeps
	// the limiter free of any observability cost beyond its own counters.
	Telemetry *Telemetry

	// TraceEveryN enables sampled decision tracing: every Nth packet the
	// filter drops is reported to TraceFunc with its socket pair, the P_d
	// in effect, the measured uplink rate, and the rotation epoch. Zero
	// (or a nil TraceFunc) disables tracing. Unroutable defensive drops
	// are counted but not traced — they never reach a P_d decision.
	TraceEveryN int
	// TraceFunc receives sampled drop traces. It is called synchronously
	// on the processing goroutine, so it must be fast and must not block;
	// it must not call back into the limiter. A Pipeline or
	// TenantPipeline calls it from every shard worker at once, so there
	// it must be safe for concurrent use.
	TraceFunc func(DropTrace)
}

// Stats is a snapshot of a Limiter's activity counters.
//
// Accounting invariant: InboundMatched + InboundUnmatched ==
// InboundPackets, and every processed packet lands in exactly one of
// OutboundPackets, InboundPackets, or Unroutable — chaos tests hold the
// limiter to this under reordered, duplicated, and clock-regressed
// input.
type Stats struct {
	OutboundPackets int64
	InboundPackets  int64
	InboundMatched  int64 // inbound packets matching tracked outbound state
	// InboundUnmatched counts inbound packets with at least one unmarked
	// filter bit; Dropped is the subset that lost a P_d draw.
	InboundUnmatched int64
	Dropped          int64
	Rotations        int64
	// Unroutable counts packets the limiter could not classify (a
	// non-IPv4 source or destination address). They are dropped
	// defensively and appear in no other counter.
	Unroutable int64
	// TimeAnomalies counts packets whose timestamp regressed behind the
	// limiter's high-water mark by more than Config.ReorderTolerance.
	// Their clocks were clamped forward; the packets were still decided.
	TimeAnomalies int64
	// ShedPassed and ShedDropped count packets a saturated Pipeline shed
	// by policy instead of deciding (see ShedPolicy). Always zero for a
	// plain Limiter or ShardedLimiter.
	ShedPassed  int64
	ShedDropped int64
}

// Limiter bounds P2P upload traffic for one client network. Packet
// processing is not safe for concurrent use — shard by flow hash for
// multi-queue pipelines (see ShardedLimiter and Pipeline) — but Stats,
// telemetry scrapes, and RestoreState/AdoptState may run concurrently
// with processing: the filter hangs off an atomic pointer and a state
// swap folds the outgoing filter's counters into a base so Stats stays
// monotone across the swap.
type Limiter struct {
	// filter is the live bitmap filter. The hot path loads it once per
	// Process call (or per batch chunk) and never touches a lock;
	// RestoreState/AdoptState publish a replacement via swapFilter.
	filter atomic.Pointer[core.Filter] //p2p:atomic

	// statsMu serializes filter swaps against Stats snapshots;
	// baseStats accumulates the counters of every retired filter so
	// totals never move backward when a swap installs a fresh filter.
	// Neither is touched by the packet path.
	statsMu   sync.Mutex
	baseStats core.Stats

	// failClosed, when set, forces P_d to 1: every unmatched inbound
	// packet is dropped regardless of uplink rate. A replicated fleet
	// sets it while a member is joining or partitioned (not Ready), so
	// a stale filter can never admit traffic the fleet already marked.
	// Owned by the processing goroutine, like the rest of the limiter.
	failClosed bool //p2p:confined limproc

	clientNet packet.Network
	now       time.Duration //p2p:confined limproc

	// unroutable and timeAnomalies are atomic for the same reason as the
	// filter's counters: one writer (the processing goroutine), any number
	// of concurrent Stats/scrape readers.
	unroutable atomic.Int64 //p2p:atomic

	// Monotonic clock guard: maxTS is the high-water mark of processed
	// timestamps, tolerance the reorder window, timeAnomalies the count
	// of beyond-tolerance regressions (see Config.ReorderTolerance).
	maxTS         time.Duration //p2p:confined limproc
	tsStarted     bool          //p2p:confined limproc
	tolerance     time.Duration
	timeAnomalies atomic.Int64 //p2p:atomic

	// Telemetry wiring (nil/zero when Config.Telemetry is unset).
	tel      *Telemetry
	telShard int

	// Sampled drop tracing (see Config.TraceEveryN). traceFn builds the
	// DropTrace of a dropped packet's unclamped timestamp and socket pair
	// and hands it to Config.TraceFunc.
	traceEvery int64
	traceFn    func(ts time.Duration, pair packet.SocketPair, pd, uplinkMbps float64, epoch int64)
	dropSeen   int64 //p2p:confined limproc

	// scratch is the two-pass batch scratch: one chunk of unpacked
	// internal packets and their routability flags, indexed in lockstep
	// with the filter's hash scratch (see decideChunk). It is allocated
	// on the first ProcessBatch call rather than inline in the struct:
	// the fixed arrays dominate the limiter's resident size (~4.5 KiB of
	// the ~5 KiB struct), and a multi-tenant control plane keeps hundreds
	// of thousands of mostly-idle limiters resident whose packets arrive
	// through the manager's own batching, never through their private
	// scratch.
	scratch *batchScratch //p2p:confined limproc

	// agg, when non-nil, nests this limiter's P_d under a shared
	// aggregate uplink budget (hierarchical RED): outbound bytes feed the
	// aggregate meter too, and the effective drop probability becomes
	// red.Combine(own, aggregate). Nil — every limiter outside a
	// TenantManager — leaves the ramp bit-identical to the paper's.
	agg *ramp

	// ramp is the limiter's own Equation 1 over its passed outbound
	// bytes. It mirrors P_d and the rate for scrapes only with telemetry
	// attached.
	ramp
}

// batchScratch is the per-chunk scratch behind ProcessBatch and a
// pipeline worker's batches; see Limiter.scratch for why it lives
// behind a pointer.
type batchScratch struct {
	bpkts [core.BatchChunk]packet.Packet
	bok   [core.BatchChunk]bool
}

// New builds a Limiter from cfg, applying the paper's defaults to every
// unset optional field.
func New(cfg Config) (*Limiter, error) {
	l, coreCfg, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	filter, err := core.New(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("p2pbound: %w", err)
	}
	l.filter.Store(filter)
	if cfg.Telemetry != nil {
		cfg.Telemetry.attach(l)
	}
	return l, nil
}

// newShell builds everything of a Limiter except its bitmap filter and
// telemetry attachment, returning the resolved core configuration so
// the caller chooses how the filter is built — core.New for a
// standalone limiter, core.NewWith over a shared arena for the tenant
// manager's per-subscriber fleet, or no filter at all for a tenant
// created in the spilled (evicted) state.
func newShell(cfg Config) (*Limiter, core.Config, error) {
	clientNet, err := packet.ParseNetwork(cfg.ClientNetwork)
	if err != nil {
		return nil, core.Config{}, fmt.Errorf("p2pbound: %w", err)
	}
	if cfg.LowMbps == 0 && cfg.HighMbps == 0 {
		cfg.LowMbps, cfg.HighMbps = 50, 100
	}
	l := &Limiter{clientNet: clientNet, tolerance: cfg.ReorderTolerance}
	if err := l.ramp.init(cfg.LowMbps*1e6, cfg.HighMbps*1e6, cfg.MeterWindow); err != nil {
		return nil, core.Config{}, fmt.Errorf("p2pbound: %w", err)
	}
	coreCfg := core.DefaultConfig()
	if cfg.Vectors != 0 {
		coreCfg.K = cfg.Vectors
	}
	if cfg.VectorBits != 0 {
		coreCfg.NBits = cfg.VectorBits
	}
	if cfg.HashFunctions != 0 {
		coreCfg.M = cfg.HashFunctions
	}
	if cfg.RotateEvery != 0 {
		coreCfg.DeltaT = cfg.RotateEvery
	}
	coreCfg.HashScheme = hashes.Scheme(cfg.HashScheme)
	coreCfg.Layout = hashes.Layout(cfg.Layout)
	coreCfg.HolePunch = cfg.HolePunch
	coreCfg.Seed = cfg.Seed
	coreCfg.ReorderTolerance = cfg.ReorderTolerance
	if cfg.TraceEveryN > 0 && cfg.TraceFunc != nil {
		l.traceEvery = int64(cfg.TraceEveryN)
		fn := cfg.TraceFunc
		l.traceFn = func(ts time.Duration, pair packet.SocketPair, pd, uplinkMbps float64, epoch int64) {
			fn(DropTrace{
				Timestamp:  ts,
				Protocol:   Protocol(pair.Proto),
				SrcAddr:    addrToNetip(pair.SrcAddr),
				SrcPort:    pair.SrcPort,
				DstAddr:    addrToNetip(pair.DstAddr),
				DstPort:    pair.DstPort,
				Pd:         pd,
				UplinkMbps: uplinkMbps,
				Epoch:      epoch,
			})
		}
	}
	return l, coreCfg, nil
}

// Process decides one packet's fate. Packets should be fed in timestamp
// order, but the limiter is hardened against capture-clock anomalies: a
// backward or duplicate timestamp is clamped to the high-water mark of
// earlier packets (so rotation, metering, and the P_d cache only ever
// move forward) and the packet is decided normally. Regressions beyond
// Config.ReorderTolerance are counted in Stats.TimeAnomalies.
//
// Defensive-drop policy: a packet the limiter cannot classify (a
// non-IPv4 source or destination address) is treated as unmatched
// inbound under full load and dropped, because passing unclassifiable
// traffic would hand P2P applications a trivial bypass. Such packets are
// counted in Stats.Unroutable and nowhere else; route non-IPv4 traffic
// to a conventional policy outside the limiter if it must be carried.
//
// The call is allocation-free: the packet travels the whole internal
// chain by value.
//
//p2p:hotpath
//p2p:confined limproc entry
func (l *Limiter) Process(p Packet) Decision {
	var r record
	r.fromPublic(&p)
	var pkt packet.Packet
	if !l.unpack(&r, &pkt) {
		l.unroutable.Add(1)
		return Drop
	}
	f := l.filter.Load()
	d := l.step(f, &pkt, f.Sums(&pkt))
	f.FlushStats()
	return d
}

// step is the one decision step of every path that decides a packet —
// Process, the chunks of ProcessBatch and of a Pipeline worker's
// batches, and the tenant manager's batch kernel: clamp the timestamp,
// Advance the filter, take P_d, run Algorithm 2 over the packet's
// precomputed indexes (which depend on neither time nor meter), then
// meter and trace. pkt keeps its own timestamp; the clamped one drives
// the filter, P_d and the meter. The filter's counter deltas stay
// pending until the caller's FlushStats. Callers run on the limiter's
// processing goroutine — for a tenant limiter, the goroutine owning
// its tenant shard.
//
//p2p:hotpath
//p2p:confined limproc entry
func (l *Limiter) step(f *core.Filter, pkt *packet.Packet, sums []uint32) Decision {
	ts := l.clampTS(pkt.TS)
	f.Advance(ts)
	pd := l.pd(ts)
	return l.decide(f, pkt, ts, pd, f.ProcessSums(pkt, sums, pd))
}

// headers loads the limiter state step reads before the filter — the
// clamp high-water mark, the P_d cache and the meter — and returns a
// value derived from it, for the tenant kernel's sink (see
// core.Filter.Headers).
//
//p2p:hotpath
//p2p:confined limproc entry
func (l *Limiter) headers() uint64 {
	return uint64(l.maxTS) + uint64(l.pdUntil) + l.meter.Header()
}

// clampTS applies the monotonic clock guard to a packet timestamp,
// advances the limiter's notion of now, and returns the clamped
// timestamp (see Config.ReorderTolerance).
//
//p2p:hotpath
//p2p:confined limproc
func (l *Limiter) clampTS(ts time.Duration) time.Duration {
	if l.tsStarted && ts < l.maxTS {
		if l.maxTS-ts > l.tolerance {
			l.timeAnomalies.Add(1)
		}
		ts = l.maxTS
	} else {
		l.maxTS = ts
		l.tsStarted = true
	}
	l.now = ts
	return ts
}

// decide applies the post-verdict bookkeeping of step — uplink
// metering of pkt.Len at the clamped time ts, P_d cache invalidation,
// drop telemetry, and sampled tracing — and maps the filter verdict to
// a Decision. The limiter's own meter add and invalidation are
// ramp.add written out, which keeps them inline on the per-packet
// path.
//
//p2p:hotpath
//p2p:confined limproc
func (l *Limiter) decide(f *core.Filter, pkt *packet.Packet, ts time.Duration, pd float64, verdict core.Verdict) Decision {
	if verdict == core.Pass && pkt.Dir == packet.Outbound {
		l.meter.Add(ts, pkt.Len)
		l.pdValid = false
		if l.agg != nil {
			l.agg.add(ts, pkt.Len)
		}
	}
	if verdict == core.Drop {
		if l.tel != nil {
			l.tel.dropPd.Observe(l.telShard, pd)
		}
		if l.traceFn != nil {
			l.dropSeen++
			if l.dropSeen%l.traceEvery == 0 {
				l.traceFn(pkt.TS, pkt.Pair, pd, l.meter.Rate(ts)/1e6, f.Rotations())
			}
		}
		return Drop
	}
	return Pass
}

// ProcessBatch decides a timestamp-sorted slice of packets, appending
// one Decision per packet to dst and returning the extended slice.
// Passing a reusable dst[:0] keeps the call allocation-free. Verdicts
// and counters are identical to feeding the same packets through Process
// one at a time; internally the batch runs in two passes per chunk of
// core.BatchChunk packets — pass A converts and hashes every packet and
// touches the target cache lines so the DRAM fetches overlap, pass B
// replays the per-packet decision sequence against warm lines (see
// DESIGN.md §12). The split is invisible in the results because index
// derivation depends only on key bytes and configuration, never on
// rotation or meter state.
//
//p2p:confined limproc entry
func (l *Limiter) ProcessBatch(pkts []Packet, dst []Decision) []Decision {
	start := l.batchStart(len(pkts))
	for lo := 0; lo < len(pkts); lo += core.BatchChunk {
		chunk := pkts[lo:min(lo+core.BatchChunk, len(pkts))]
		sc := l.scratch
		for i := range chunk {
			var r record
			r.fromPublic(&chunk[i])
			sc.bok[i] = l.unpack(&r, &sc.bpkts[i])
		}
		dst = l.decideChunk(len(chunk), dst)
	}
	l.batchDone(start, len(pkts))
	return dst
}

// processRecords is ProcessBatch over records, the form a Pipeline
// worker takes from its ring: the same scratch, chunks and decisions.
// It runs on the limiter's processing goroutine (the shard's worker).
//
//p2p:confined limproc entry
func (l *Limiter) processRecords(recs []record, dst []Decision) []Decision {
	start := l.batchStart(len(recs))
	for lo := 0; lo < len(recs); lo += core.BatchChunk {
		chunk := recs[lo:min(lo+core.BatchChunk, len(recs))]
		sc := l.scratch
		for i := range chunk {
			sc.bok[i] = l.unpack(&chunk[i], &sc.bpkts[i])
		}
		dst = l.decideChunk(len(chunk), dst)
	}
	l.batchDone(start, len(recs))
	return dst
}

// batchStart readies the batch scratch for a batch of n packets and,
// with telemetry attached, returns the batch's start for batchDone.
//
//p2p:confined limproc
func (l *Limiter) batchStart(n int) time.Time {
	if l.scratch == nil && n > 0 {
		// One-time, off the annotated hot path: testing.AllocsPerRun's
		// warm-up run absorbs it, and steady state never re-allocates.
		l.scratch = new(batchScratch)
	}
	if l.tel != nil {
		return time.Now()
	}
	return time.Time{}
}

// batchDone records a batch of n packets begun at start in the batch
// latency histogram, when telemetry is attached.
func (l *Limiter) batchDone(start time.Time, n int) {
	if l.tel != nil && n > 0 {
		l.tel.batchSeconds.Observe(l.telShard, time.Since(start).Seconds())
	}
}

// decideChunk runs pass A and pass B over the first n packets of the
// batch scratch, which the caller has filled. Unroutable packets keep
// their slot — they are hashed as the zero pair in pass A (harmless:
// the indexes are never used) and defensively dropped in pass B — so
// the chunk index always equals the filter's scratch index.
//
//p2p:hotpath
//p2p:confined limproc
func (l *Limiter) decideChunk(n int, dst []Decision) []Decision {
	f := l.filter.Load()
	sc := l.scratch
	f.HashBatch(sc.bpkts[:n])
	for i := range sc.bpkts[:n] {
		if !sc.bok[i] {
			l.unroutable.Add(1)
			dst = append(dst, Drop) //p2p:bounded cap(dst) is caller-owned; ProcessBatch appends exactly len(pkts)
			continue
		}
		dst = append(dst, l.step(f, &sc.bpkts[i], f.Hashed(i))) //p2p:bounded cap(dst) is caller-owned; ProcessBatch appends exactly len(pkts)
	}
	f.FlushStats()
	return dst
}

// pd returns the drop probability at simulated time ts from the
// limiter's ramp (see ramp.pd). Process and ProcessBatch share this
// path, so batch and per-packet runs draw identical P_d sequences.
//
//p2p:hotpath
//p2p:confined limproc
func (l *Limiter) pd(ts time.Duration) float64 {
	if l.failClosed {
		return 1
	}
	pd := l.ramp.pd(ts)
	if l.agg != nil {
		// Hierarchical RED: nest this limiter's ramp under the shared
		// uplink budget. Combine's exact early-outs keep a zero aggregate
		// pressure bit-identical to the bare ramp.
		return red.Combine(pd, l.agg.pd(ts))
	}
	return pd
}

// UplinkMbps returns the current measured uplink throughput in megabits
// per second. Reads processing-goroutine state (the clock high-water
// mark); call it from that goroutine, between batches.
//
//p2p:confined limproc entry
func (l *Limiter) UplinkMbps() float64 {
	return l.meter.Rate(l.now) / 1e6
}

// DropProbability returns the P_d currently applied to unmatched inbound
// packets: the one the next packet's decision would use, so 1 in
// fail-closed mode and the ramp nested under the aggregate budget when
// the limiter has one. Like UplinkMbps, a processing-goroutine call.
//
//p2p:confined limproc entry
func (l *Limiter) DropProbability() float64 {
	return l.pd(l.now)
}

// MemoryBytes returns the fixed size of the bitmap in bytes.
func (l *Limiter) MemoryBytes() int { return l.filter.Load().Bytes() }

// ExpiryHorizon returns T_e = k·Δt, the maximum idle time after which an
// outbound flow's inbound packets face the drop probability.
func (l *Limiter) ExpiryHorizon() time.Duration { return l.filter.Load().TE() }

// SetFailClosed switches the limiter between normal RED-ramp operation
// and fail-closed mode (P_d pinned to 1; see Limiter.failClosed). Must
// be called from the processing goroutine, like Process itself — the
// replicated fleet flips it from its sync pump between batches.
//
//p2p:confined limproc entry
func (l *Limiter) SetFailClosed(on bool) { l.failClosed = on }

// FailClosed reports whether SetFailClosed(true) is in effect.
//
//p2p:confined limproc entry
func (l *Limiter) FailClosed() bool { return l.failClosed }

// Stats returns a snapshot of the activity counters. Unlike Process, it
// may be called from any goroutine, concurrently with processing: every
// counter is an atomic, so each value is torn-free and monotone. A
// snapshot taken mid-packet may catch the accounting invariant between
// increments (e.g. InboundPackets bumped before the matched/unmatched
// split); quiesce the limiter before asserting cross-counter identities.
func (l *Limiter) Stats() Stats {
	l.statsMu.Lock()
	var s core.Stats
	// A nil filter is a tenant limiter in the evicted state: its counters
	// were folded into baseStats when the filter was spilled, so the base
	// alone is the complete, monotone history.
	if f := l.filter.Load(); f != nil {
		s = f.Stats()
	}
	b := l.baseStats
	l.statsMu.Unlock()
	return Stats{
		OutboundPackets:  b.OutboundPackets + s.OutboundPackets,
		InboundPackets:   b.InboundPackets + s.InboundPackets,
		InboundMatched:   b.InboundHits + s.InboundHits,
		InboundUnmatched: b.InboundMisses + s.InboundMisses,
		Dropped:          b.Dropped + s.Dropped,
		Rotations:        b.Rotations + s.Rotations,
		Unroutable:       l.unroutable.Load(),
		// The limiter clamps timestamps before they reach the filter, so
		// the filter's own counter stays zero on this path; it is summed
		// anyway so direct core.Filter restores never lose anomalies.
		TimeAnomalies: l.timeAnomalies.Load() + b.TimeAnomalies + s.TimeAnomalies,
	}
}

// swapFilter atomically publishes a replacement filter, folding the
// outgoing filter's counters into the base so Stats stays monotone: a
// reader can never observe totals lower than any earlier snapshot.
// (Packets mid-flight on the processing goroutine may still decide
// against the outgoing filter; their counter increments land on the
// retired instance after the fold and are the one thing a swap can
// lose — bounded by a single batch chunk, and never negative.)
func (l *Limiter) swapFilter(filter *core.Filter) {
	l.statsMu.Lock()
	// Swapping a nil in (tenant eviction) folds the final counters and
	// leaves only the base; swapping out of nil (rehydration) has nothing
	// to fold.
	if old := l.filter.Load(); old != nil {
		s := old.Stats()
		l.baseStats.OutboundPackets += s.OutboundPackets
		l.baseStats.InboundPackets += s.InboundPackets
		l.baseStats.InboundHits += s.InboundHits
		l.baseStats.InboundMisses += s.InboundMisses
		l.baseStats.Dropped += s.Dropped
		l.baseStats.Rotations += s.Rotations
		l.baseStats.TimeAnomalies += s.TimeAnomalies
	}
	l.filter.Store(filter)
	l.statsMu.Unlock()
}

// unpack writes r into dst, classified against the limiter's client
// network by packet.Classify's rule (a source inside it is outbound),
// and reports whether r is routable. An unroutable record unpacks as
// the zero pair, whose indexes are never used.
//
//p2p:hotpath
func (l *Limiter) unpack(r *record, dst *packet.Packet) bool {
	dir := packet.Inbound
	if l.clientNet.Contains(r.src) {
		dir = packet.Outbound
	}
	r.unpack(dst, dir)
	return r.v4
}

// addrToNetip converts an internal IPv4 address to a netip.Addr.
func addrToNetip(a packet.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// SaveState serializes the limiter's bitmap filter — the flow-admission
// state — so a restarted process can resume admitting the flows it was
// already tracking instead of challenging every client for the first T_e
// after boot. Thresholds and the throughput meter are not persisted; the
// meter refills within its window.
func (l *Limiter) SaveState(w io.Writer) error {
	if _, err := l.filter.Load().WriteTo(w); err != nil {
		return fmt.Errorf("p2pbound: save state: %w", err)
	}
	return nil
}

// RestoreState replaces the limiter's bitmap filter with one deserialized
// from a SaveState stream. The snapshot's geometry (k, N, m, Δt, hash
// construction, hole-punch mode) must match the limiter's configured
// geometry; a mismatch returns a descriptive error and leaves the
// limiter untouched, because silently adopting a stale geometry changes
// the false-positive rate and expiry horizon the operator configured.
// Use AdoptState to deliberately take over a snapshot's geometry.
func (l *Limiter) RestoreState(r io.Reader) error {
	filter, err := core.ReadFilter(r)
	if err != nil {
		return fmt.Errorf("p2pbound: restore state: %w", err)
	}
	if err := geometryMismatch(l.filter.Load().Config(), filter.Config()); err != nil {
		return fmt.Errorf("p2pbound: restore state: %w (use AdoptState to accept the snapshot geometry)", err)
	}
	filter.SetReorderTolerance(l.tolerance)
	l.swapFilter(filter)
	return nil
}

// AdoptState is RestoreState without the geometry guard: the snapshot's
// geometry (k, N, m, Δt, hash construction, hole-punch mode) becomes the
// limiter's geometry. Intended for explicit operator action — migrating
// state across a reconfiguration — not for the routine restart path.
func (l *Limiter) AdoptState(r io.Reader) error {
	filter, err := core.ReadFilter(r)
	if err != nil {
		return fmt.Errorf("p2pbound: adopt state: %w", err)
	}
	filter.SetReorderTolerance(l.tolerance)
	l.swapFilter(filter)
	return nil
}

// ErrGeometryMismatch is the typed rejection RestoreState returns when
// a snapshot's geometry differs from the limiter's configured geometry;
// match it with errors.Is to distinguish "wrong geometry" (an operator
// decision: reconfigure or AdoptState) from a corrupt or unreadable
// snapshot (see the core.ErrSnapshot* sentinels, which also satisfy
// errors.Is through the same error chain).
var ErrGeometryMismatch = errors.New("snapshot geometry mismatch")

// geometryMismatch compares the geometry-bearing fields of two filter
// configurations, ignoring operational knobs (seed, reorder tolerance).
// Zero HashScheme and Layout mean the default derivation, so both sides
// are resolved before comparing — snapshots always store the resolved
// values — and the layout then decides the scheme too.
func geometryMismatch(want, got core.Config) error {
	want, _ = want.Resolve()
	got, _ = got.Resolve()
	switch {
	case want.K != got.K:
		return fmt.Errorf("%w: k=%d, configured k=%d", ErrGeometryMismatch, got.K, want.K)
	case want.NBits != got.NBits:
		return fmt.Errorf("%w: n=%d, configured n=%d", ErrGeometryMismatch, got.NBits, want.NBits)
	case want.M != got.M:
		return fmt.Errorf("%w: m=%d, configured m=%d", ErrGeometryMismatch, got.M, want.M)
	case want.DeltaT != got.DeltaT:
		return fmt.Errorf("%w: Δt=%v, configured Δt=%v", ErrGeometryMismatch, got.DeltaT, want.DeltaT)
	case want.Layout != got.Layout:
		return fmt.Errorf("%w: layout %v, configured %v", ErrGeometryMismatch, got.Layout, want.Layout)
	case want.HolePunch != got.HolePunch:
		return fmt.Errorf("%w: holepunch=%v, configured holepunch=%v", ErrGeometryMismatch, got.HolePunch, want.HolePunch)
	}
	return nil
}
