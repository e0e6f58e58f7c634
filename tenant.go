package p2pbound

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/packet"
)

// TenantConfig registers one subscriber network with a TenantManager.
type TenantConfig struct {
	// ID labels the tenant in stats and telemetry. Defaults to the
	// network CIDR string.
	ID string
	// Network is the subscriber's CIDR prefix. Its prefix length must
	// equal the manager's PrefixBits — uniform subscriber geometry is
	// what makes per-packet tenant routing a single shifted map lookup.
	Network string
}

// TenantManagerConfig parameterizes a TenantManager.
type TenantManagerConfig struct {
	// Tenant is the template limiter configuration every subscriber
	// runs: thresholds, filter geometry, hash construction, reorder
	// tolerance. ClientNetwork and Telemetry are ignored (the network
	// comes from each TenantConfig; telemetry attaches at the manager).
	// Seed seeds tenant 0; tenant i uses Seed+i, mirroring NewSharded.
	Tenant Config

	// PrefixBits is the uniform subscriber prefix length (1–32). Every
	// tenant network must be exactly this wide; the per-packet route is
	// then addr >> (32−PrefixBits) into an immutable map.
	PrefixBits int

	// Shards is the number of tenant shards — independent single-writer
	// islands, each with its own bit-vector arena, aggregate uplink
	// budget slice, and hydration LRU. Tenants are assigned round-robin
	// by route key. Default 1; a TenantPipeline runs one worker per
	// shard.
	Shards int

	// AggregateLowMbps and AggregateHighMbps are the edge-wide
	// hierarchical-RED thresholds: the whole uplink's Equation 1 ramp,
	// split evenly across shards (like ShardedLimiter thresholds) and
	// combined with each tenant's own P_d via red.Combine. Both zero
	// disables the aggregate budget, leaving every tenant's ramp
	// bit-identical to a bare Limiter; otherwise they must satisfy
	// 0 <= low < high.
	AggregateLowMbps  float64
	AggregateHighMbps float64

	// MaxHydratedPerShard caps how many tenants may hold live filter
	// vectors per shard; hydrating past the cap evicts the shard's
	// least-recently-active tenants first. 0 means uncapped.
	MaxHydratedPerShard int

	// Telemetry, when non-nil, attaches manager-level series (tenant
	// population, hydration churn, aggregate budget, arena occupancy)
	// labeled by tenant shard.
	Telemetry *Telemetry
	// PerTenantTelemetry additionally registers per-tenant packet and
	// drop counters labeled tenant=<ID>. Intended for small populations
	// or debugging — 100k tenants would register 500k series.
	PerTenantTelemetry bool
}

// tenant is one subscriber's control block. The shell Limiter (meter,
// P_d cache, clamp state, folded counters) is always resident — a few
// hundred bytes — while the bitmap filter, the dominant cost, exists
// only while the tenant is hydrated. Evicting copies the filter's
// words (none, for an empty filter) and its rotation and rng state
// into the tenant, and returns the filter shell, vectors and all, to
// the shard for the next hydration.
type tenant struct {
	// The fields every packet's touch reads lead the struct, so a cold
	// tenant costs the batch kernel one cache line.
	sh  *tshard
	lim *Limiter
	// lastActive is the shard activity clock value of the tenant's most
	// recent packet; the intrusive LRU list below is ordered by it
	// (head = most recent) because the clock is monotone.
	lastActive time.Duration //p2p:confined tenantshard
	prev, next *tenant       //p2p:confined tenantshard
	hydrated   bool          //p2p:confined tenantshard
	// chunk numbers the last batch-kernel chunk that counted this
	// tenant against MaxHydratedPerShard.
	chunk uint64 //p2p:confined tenantshard

	id   string
	net  packet.Network
	seed uint64

	// spilled marks that rot/rng hold a real suspended position (a
	// tenant that was hydrated at least once); a never-hydrated tenant
	// starts from the fresh-filter state instead.
	spilled bool //p2p:confined tenantshard
	// words is the spilled filter's k vectors as raw words, a record of
	// the shard's spill pool; nil when the filter held no mark.
	words []uint64 //p2p:confined tenantshard
	// wordsSeed is the configured seed of the filter words came from,
	// which its snapshot header records.
	wordsSeed uint64             //p2p:confined tenantshard
	rot       core.RotationState //p2p:confined tenantshard
	rng       []byte             //p2p:confined tenantshard
}

// tshard is one single-writer island of the manager: only one goroutine
// at a time may process packets, hydrate, or evict on a given shard
// (the caller's goroutine under direct Process/ProcessBatch, the
// shard's worker under a TenantPipeline). Scrape-facing fields are
// atomics, as everywhere else.
type tshard struct {
	idx   int
	arena *bitvec.Arena
	agg   *ramp    // the aggregate budget; nil when it is disabled
	kern  *tkernel // the batch kernel of the shard's TenantPipeline worker

	now     time.Duration //p2p:confined tenantshard // monotone activity clock (max packet ts seen)
	lruHead *tenant       //p2p:confined tenantshard
	lruTail *tenant       //p2p:confined tenantshard
	// shells holds the filters of evicted tenants, vectors and all,
	// for the next hydrations to reset and reuse.
	shells []*core.Filter //p2p:confined tenantshard
	spill  spillPool      //p2p:confined tenantshard
	// touchLines is whether the shard arena has outgrown the cache, so
	// the kernel's pass A touches bit lines ahead of pass B.
	touchLines bool //p2p:confined tenantshard

	hydrated   atomic.Int64 //p2p:atomic
	hydrations atomic.Int64 //p2p:atomic
	evictions  atomic.Int64 //p2p:atomic
	spillBytes atomic.Int64 //p2p:atomic
}

// spillPool recycles one shard's spill records, each the raw words of
// one filter's k vectors. Records are carved from slabs as the arena
// carves vector spans, so eviction churn allocates nothing once the
// pool has grown to the shard's peak of spilled marked filters.
type spillPool struct {
	words   int // words per record
	perSlab int
	free    [][]uint64 //p2p:confined tenantshard
	cur     []uint64   //p2p:confined tenantshard
}

// get returns a record of p.words words with undefined contents.
//
//p2p:confined tenantshard
func (p *spillPool) get() []uint64 {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return w
	}
	if len(p.cur) < p.words {
		p.cur = make([]uint64, p.words*p.perSlab)
	}
	w := p.cur[:p.words:p.words]
	p.cur = p.cur[p.words:]
	return w
}

// put returns a record for reuse.
//
//p2p:confined tenantshard
func (p *spillPool) put(w []uint64) { p.free = append(p.free, w) }

// routeTable is the immutable per-packet routing state, swapped
// copy-on-write by AddTenants so the lookup takes no lock and performs
// no allocation.
type routeTable struct {
	shift uint
	byKey map[uint32]*tenant
}

// lookup resolves a packet's addresses to its tenant: the source
// subscriber if the source address is registered (the outbound view,
// matching packet.Classify's source preference), else the destination
// subscriber. key is the route key that matched, and out reports that
// it was the source: only a source inside the subscriber network makes
// the packet outbound for that subscriber.
//
//p2p:hotpath
func (rt *routeTable) lookup(src, dst packet.Addr) (t *tenant, key uint32, out bool) {
	key = uint32(src) >> rt.shift
	if t = rt.byKey[key]; t != nil {
		return t, key, true
	}
	key = uint32(dst) >> rt.shift
	return rt.byKey[key], key, false
}

// shardOf returns the index of the tenant shard r routes to, or 0 for a
// record with no subscriber or no IPv4 address: a TenantPipeline
// carries those to worker 0, which drops them.
//
//p2p:hotpath
func (rt *routeTable) shardOf(r *record) int {
	if !r.v4 {
		return 0
	}
	if t, _, _ := rt.lookup(r.src, r.dst); t != nil {
		return t.sh.idx
	}
	return 0
}

// TenantManager multiplexes per-subscriber limiters — O(100k) on one
// process — behind a single Process/ProcessBatch surface: packets are
// routed to their subscriber by CIDR, each subscriber runs the paper's
// full bitmap-filter + RED pipeline against its own thresholds, and
// every subscriber's drop probability is nested under a shared uplink
// budget (hierarchical RED) so one seeding tenant cannot starve the
// edge. Idle tenants spill their filters as raw words and rehydrate
// verdict-exactly on their next packet.
//
// Concurrency contract: packet processing, hydration, and eviction are
// single-writer per shard. Direct Process, ProcessBatch and EvictIdle
// calls share one goroutine — they may touch any shard and share one
// batch kernel — while a TenantPipeline runs one worker per shard.
// SaveTenantState and RestoreTenantState are control-plane calls that
// must not run concurrently with processing; AddTenants, Stats,
// TenantStats, and telemetry scrapes may run at any time.
type TenantManager struct {
	cfg     TenantManagerConfig
	tmpl    Config
	coreCfg core.Config
	netMask packet.Addr

	routes atomic.Pointer[routeTable] //p2p:atomic

	shards []*tshard
	// kern is the batch kernel of direct Process and ProcessBatch calls.
	kern *tkernel //p2p:confined tenantshard
	// chunks numbers batch-kernel chunks for the hydration cap.
	chunks atomic.Uint64 //p2p:atomic

	mu      sync.Mutex
	tenants []*tenant
	byID    map[string]*tenant

	noTenant   atomic.Int64 //p2p:atomic
	unroutable atomic.Int64 //p2p:atomic
}

// tenantVectorsPerSlab is the arena growth unit, in vectors per slab.
const tenantVectorsPerSlab = 64

// NewTenantManager builds an empty manager; register subscribers with
// AddTenants.
func NewTenantManager(cfg TenantManagerConfig) (*TenantManager, error) {
	if cfg.PrefixBits < 1 || cfg.PrefixBits > 32 {
		return nil, fmt.Errorf("p2pbound: tenant PrefixBits must be in [1,32], got %d", cfg.PrefixBits)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("p2pbound: tenant Shards must be non-negative, got %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if (cfg.AggregateLowMbps == 0) != (cfg.AggregateHighMbps == 0) {
		return nil, fmt.Errorf("p2pbound: aggregate thresholds must both be set or both zero")
	}
	if cfg.MaxHydratedPerShard < 0 {
		return nil, fmt.Errorf("p2pbound: tenant MaxHydratedPerShard must be non-negative, got %d", cfg.MaxHydratedPerShard)
	}
	tmpl := cfg.Tenant
	tmpl.Telemetry = nil
	// Resolve the template's core geometry once by building (and
	// discarding) a probe shell; every tenant shares it, seed aside.
	probe := tmpl
	probe.ClientNetwork = "0.0.0.0/0"
	_, coreCfg, err := newShell(probe)
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndexer(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("p2pbound: %w", err)
	}
	m := &TenantManager{
		cfg:     cfg,
		tmpl:    tmpl,
		coreCfg: coreCfg,
		kern:    newTKernel(ix, coreCfg.M),
		netMask: packet.Addr(^uint32(0) << (32 - cfg.PrefixBits)),
		shards:  make([]*tshard, cfg.Shards),
		byID:    make(map[string]*tenant),
	}
	for i := range m.shards {
		sh := &tshard{
			idx:   i,
			arena: bitvec.NewArena(1<<coreCfg.NBits, tenantVectorsPerSlab),
			kern:  newTKernel(ix, coreCfg.M),
			spill: spillPool{
				words:   coreCfg.K * max(1, (1<<coreCfg.NBits)/64),
				perSlab: max(1, tenantVectorsPerSlab/coreCfg.K),
			},
		}
		if cfg.AggregateLowMbps != 0 || cfg.AggregateHighMbps != 0 {
			n := float64(cfg.Shards)
			sh.agg = &ramp{mirror: true}
			if err := sh.agg.init(cfg.AggregateLowMbps*1e6/n, cfg.AggregateHighMbps*1e6/n, tmpl.MeterWindow); err != nil {
				return nil, fmt.Errorf("p2pbound: aggregate budget: %w", err)
			}
		}
		m.shards[i] = sh
	}
	m.routes.Store(&routeTable{
		shift: uint(32 - cfg.PrefixBits),
		byKey: map[uint32]*tenant{},
	})
	if cfg.Telemetry != nil {
		cfg.Telemetry.attachTenantManager(m)
	}
	return m, nil
}

// AddTenant registers one subscriber network.
func (m *TenantManager) AddTenant(tc TenantConfig) error {
	return m.AddTenants([]TenantConfig{tc})
}

// AddTenants registers a batch of subscriber networks. The route table
// is cloned once per call — registering 100k tenants in one batch costs
// one copy, not 100k — and published atomically, so it may run
// concurrently with packet processing; the new tenants become routable
// when the call returns. Tenants start cold: no filter vectors are
// allocated until their first packet hydrates them. A TenantPipeline
// routes each packet once, at submit time: a packet it queued as
// tenantless before the call stays tenantless and is dropped as
// NoTenant, unless its subscriber landed on shard 0, where such packets
// are decided.
func (m *TenantManager) AddTenants(tcs []TenantConfig) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.routes.Load()
	byKey := make(map[uint32]*tenant, len(old.byKey)+len(tcs))
	for k, v := range old.byKey {
		byKey[k] = v
	}
	// Everything below stages into locals; m is mutated only after the
	// whole batch validates, so a failed AddTenants registers nothing.
	added := make([]*tenant, 0, len(tcs))
	newIDs := make(map[string]bool, len(tcs))
	for _, tc := range tcs {
		net, err := packet.ParseNetwork(tc.Network)
		if err != nil {
			return fmt.Errorf("p2pbound: tenant %q: %w", tc.ID, err)
		}
		if net.Mask != m.netMask {
			return fmt.Errorf("p2pbound: tenant %q: network %s is not a /%d (manager PrefixBits)",
				tc.ID, tc.Network, m.cfg.PrefixBits)
		}
		id := tc.ID
		if id == "" {
			id = net.String()
		}
		if _, dup := m.byID[id]; dup || newIDs[id] {
			return fmt.Errorf("p2pbound: duplicate tenant id %q", id)
		}
		newIDs[id] = true
		key := uint32(net.Prefix) >> old.shift
		if _, dup := byKey[key]; dup {
			return fmt.Errorf("p2pbound: tenant %q: network %s overlaps a registered tenant", id, tc.Network)
		}
		idx := len(m.tenants) + len(added)
		cfg := m.tmpl
		cfg.ClientNetwork = tc.Network
		cfg.Seed = m.tmpl.Seed + uint64(idx)
		lim, _, err := newShell(cfg)
		if err != nil {
			return fmt.Errorf("p2pbound: tenant %q: %w", id, err)
		}
		sh := m.shardOfKey(key)
		lim.agg = sh.agg
		t := &tenant{id: id, net: net, seed: cfg.Seed, sh: sh, lim: lim}
		byKey[key] = t
		added = append(added, t)
	}
	for _, t := range added {
		m.byID[t.id] = t
		m.tenants = append(m.tenants, t)
	}
	m.routes.Store(&routeTable{shift: old.shift, byKey: byKey})
	if m.cfg.Telemetry != nil && m.cfg.PerTenantTelemetry {
		for _, t := range added {
			m.cfg.Telemetry.attachTenant(t)
		}
	}
	return nil
}

// shardOfKey returns the shard owning the tenant with route key key:
// tenants are spread over shards round-robin by key.
func (m *TenantManager) shardOfKey(key uint32) *tshard {
	return m.shards[int(key)%len(m.shards)]
}

// Process routes and decides one packet. A packet matching no
// registered subscriber is dropped defensively (counted in
// Stats.NoTenant), exactly as a bare Limiter defensively drops
// unclassifiable packets; a non-IPv4 packet is counted in
// Stats.Unroutable. It is ProcessBatch of one packet; see the type
// comment for the goroutine contract.
//
//p2p:confined tenantshard entry
func (m *TenantManager) Process(p Packet) Decision {
	k := m.kern
	k.recs[0].fromPublic(&p)
	var d [1]Decision
	return m.processBatch(k, nil, k.recs[:1], d[:0])[0]
}

// ProcessBatch routes and decides a timestamp-sorted slice of packets,
// appending one Decision per packet to dst. Verdicts, every tenant's
// counters, and hydrations and evictions are those of calling Process
// on each packet in turn; internally the batch runs through a two-pass
// kernel across tenants (see processBatch), so the cache misses of
// interleaved subscribers overlap instead of queueing one behind the
// other.
//
//p2p:confined tenantshard entry
func (m *TenantManager) ProcessBatch(pkts []Packet, dst []Decision) []Decision {
	k := m.kern
	for len(pkts) > 0 {
		n := min(len(pkts), core.BatchChunk)
		for i := range pkts[:n] {
			k.recs[i].fromPublic(&pkts[i])
		}
		dst = m.processBatch(k, nil, k.recs[:n], dst)
		pkts = pkts[n:]
	}
	return dst
}

// tkernel is the scratch of the cross-tenant batch kernel for one chunk
// of at most core.BatchChunk packets: each packet's tenant (nil when it
// has none), its internal form, and its m indexes, plus the records
// Process and ProcessBatch convert public packets into. Every tenant
// shares the manager's geometry, so the manager's one Indexer derives
// the indexes for all of them, in every kernel.
type tkernel struct {
	ix   *core.Indexer
	m    int
	recs [core.BatchChunk]record
	tens [core.BatchChunk]*tenant
	pkts [core.BatchChunk]packet.Packet
	sums []uint32
	// sink keeps pass A's warming loads from being discarded.
	sink uint64
}

func newTKernel(ix *core.Indexer, m int) *tkernel {
	return &tkernel{ix: ix, m: m, sums: make([]uint32, core.BatchChunk*m)}
}

// processBatch is ProcessBatch on kernel k, scoped to one shard when
// owner is non-nil: a packet routing to another shard's tenant is
// dropped and counted NoTenant, never decided on a tenant this
// goroutine does not own. That happens only when the tenant was
// registered after a TenantPipeline producer routed the packet as
// tenantless.
//
// The batch runs in chunks of at most core.BatchChunk packets, two
// passes each. Pass A routes every packet, converts it, derives its
// indexes, and touches its tenant in packet order — advancing the
// activity clock, hydrating, evicting, reordering the LRU exactly as
// Process would — and between those steps loads each level of the
// chunk's per-packet state in a loop of its own, so that the cache
// misses of different packets overlap instead of forming one chain per
// packet. Pass B then decides the packets in their original order
// through Limiter.step, so every tenant's rotation, meter, rng and the
// shard's aggregate budget see exactly the inputs of per-packet
// processing.
//
//p2p:confined tenantshard
func (m *TenantManager) processBatch(k *tkernel, owner *tshard, recs []record, dst []Decision) []Decision {
	for len(recs) > 0 {
		n := m.passA(k, owner, recs)
		dst = k.passB(n, dst)
		recs = recs[n:]
	}
	return dst
}

// passA prepares the chunk at the head of recs and returns its length.
// A chunk ends early rather than hold more distinct tenants than
// MaxHydratedPerShard, so no hydration in it can evict a tenant the
// same chunk still has to decide.
//
//p2p:confined tenantshard
func (m *TenantManager) passA(k *tkernel, owner *tshard, recs []record) int {
	rt := m.routes.Load()
	limit := m.cfg.MaxHydratedPerShard
	var chunk uint64
	if limit > 0 {
		chunk = m.chunks.Add(1)
	}
	distinct := 0
	mm := k.m
	n := min(len(recs), core.BatchChunk)
	for i := 0; i < n; i++ {
		r := &recs[i]
		k.tens[i] = nil
		if !r.v4 {
			m.unroutable.Add(1)
			continue
		}
		t, key, out := rt.lookup(r.src, r.dst)
		// A tenant's shard follows from its route key, so the owner
		// check needs no load of the tenant itself.
		if t == nil || owner != nil && m.shardOfKey(key) != owner {
			m.noTenant.Add(1)
			continue
		}
		if limit > 0 && t.chunk != chunk {
			if distinct == limit {
				n = i
				break
			}
			distinct++
			t.chunk = chunk
		}
		dir := packet.Inbound
		if out {
			dir = packet.Outbound
		}
		k.tens[i] = t
		r.unpack(&k.pkts[i], dir)
	}
	// Every slot is hashed, tenantless ones included: their indexes are
	// never read, and one call for the chunk beats a call per packet.
	k.ix.Derive(k.sums, k.pkts[:n])
	tens := k.tens[:n]
	sink := k.sink
	// Tenant control blocks and the LRU neighbours a touch relinks.
	for _, t := range tens {
		if t != nil {
			sink += uint64(t.lastActive)
			if t.prev != nil {
				sink += uint64(t.prev.lastActive)
			}
			if t.next != nil {
				sink += uint64(t.next.lastActive)
			}
		}
	}
	for i, t := range tens {
		if t != nil {
			m.touch(t, k.pkts[i].TS)
		}
	}
	// Limiters and their meters.
	for _, t := range tens {
		if t != nil {
			sink += t.lim.headers()
		}
	}
	// Filters and their vector headers.
	for _, t := range tens {
		if t != nil {
			sink += t.lim.filter.Load().Headers()
		}
	}
	// Bit lines, once the shard's arena has outgrown the cache. The
	// gate is the arena's, not one filter's: a tenant filter is a few
	// KiB, but thousands of them share the shard's memory.
	for i, t := range tens {
		if t != nil && t.sh.touchLines {
			t.lim.filter.Load().TouchLines(k.sums[i*mm:i*mm+mm], k.pkts[i].Dir == packet.Outbound)
		}
	}
	k.sink = sink
	return n
}

// passB decides the n packets pass A prepared, in packet order,
// appending one Decision per packet to dst, then publishes every
// decided filter's counters.
//
//p2p:hotpath
func (k *tkernel) passB(n int, dst []Decision) []Decision {
	mm := k.m
	tens := k.tens[:n]
	for i, t := range tens {
		if t == nil {
			dst = append(dst, Drop) //p2p:bounded cap(dst) is caller-owned; ProcessBatch appends exactly len(pkts)
			continue
		}
		l := t.lim
		dst = append(dst, l.step(l.filter.Load(), &k.pkts[i], k.sums[i*mm:i*mm+mm])) //p2p:bounded cap(dst) is caller-owned; ProcessBatch appends exactly len(pkts)
	}
	for _, t := range tens {
		if t != nil {
			t.lim.filter.Load().FlushStats()
		}
	}
	return dst
}

// touch advances the shard activity clock, hydrates the tenant if its
// filter is spilled, and keeps the shard LRU ordered.
//
//p2p:confined tenantshard
func (m *TenantManager) touch(t *tenant, ts time.Duration) {
	sh := t.sh
	if ts > sh.now {
		sh.now = ts
	}
	t.lastActive = sh.now
	if !t.hydrated {
		m.hydrate(t)
		return
	}
	if sh.lruHead != t {
		sh.lruRemove(t)
		sh.lruPushFront(t)
	}
}

// hydrate gives t a filter — a pooled shell of an evicted tenant, or
// one carved from the shard arena — and restores the spilled words,
// rotation schedule, clamp high-water mark, and rng position when the
// tenant was evicted before: the rehydrated filter's subsequent
// verdicts are bit-identical to one that never left memory. Hydrating
// past MaxHydratedPerShard first evicts the shard's least-recently-
// active tenants.
//
//p2p:confined tenantshard
func (m *TenantManager) hydrate(t *tenant) {
	sh := t.sh
	if max := m.cfg.MaxHydratedPerShard; max > 0 {
		for int(sh.hydrated.Load()) >= max && sh.lruTail != nil {
			m.evict(sh.lruTail)
		}
	}
	seed := t.seed
	if t.words != nil {
		seed = t.wordsSeed
	}
	f := m.shell(sh, seed)
	if t.words != nil {
		f.LoadWords(t.words)
		sh.dropWords(t)
	}
	if t.spilled {
		// The rotation and rng records come from RotationState and
		// RNGState, or from a frame RestoreTenantState validated.
		err := f.SetRotationState(t.rot)
		if err == nil && t.rng != nil {
			err = f.SetRNGState(t.rng)
		}
		if err != nil {
			panic("p2pbound: tenant hydrate: " + err.Error())
		}
	}
	t.lim.swapFilter(f)
	t.hydrated = true
	sh.lruPushFront(t)
	sh.hydrated.Add(1)
	sh.hydrations.Add(1)
}

// shell returns a filter seeded with seed for a hydrating tenant on sh:
// the shell of an evicted tenant, reset, or — when the shard has none
// pooled — a new filter carved from the shard arena.
//
//p2p:confined tenantshard
func (m *TenantManager) shell(sh *tshard, seed uint64) *core.Filter {
	if n := len(sh.shells); n > 0 {
		f := sh.shells[n-1]
		sh.shells[n-1] = nil
		sh.shells = sh.shells[:n-1]
		f.Reset(seed)
		return f
	}
	cfg := m.coreCfg
	cfg.Seed = seed
	f, err := core.NewWith(cfg, sh.arena)
	if err != nil {
		// The geometry was validated at construction; this cannot fail
		// without a programming error.
		panic("p2pbound: tenant hydrate: " + err.Error())
	}
	sh.touchLines = core.TouchWorthwhile(int64(sh.arena.FootprintBytes()))
	return f
}

// evict spills t's filter and pools its shell for the shard's next
// hydration. The filter's words go into a spill-pool record unless the
// filter is empty — the common case for a tenant idle past its expiry
// horizon, since the due-rotation jump clears every vector — and its
// rotation and rng state into the tenant. The tenant's counters are
// folded into its limiter's base (monotone Stats across any number of
// evict/rehydrate cycles).
//
//p2p:confined tenantshard
func (m *TenantManager) evict(t *tenant) {
	if !t.hydrated {
		return
	}
	sh := t.sh
	f := t.lim.filter.Load()
	if !f.Empty() {
		t.words = sh.spill.get()
		f.SpillWords(t.words)
		t.wordsSeed = f.Config().Seed
		sh.spillBytes.Add(8 * int64(len(t.words)))
	}
	t.rot = f.RotationState()
	if b, err := f.RNGState(); err == nil {
		t.rng = b
	}
	t.spilled = true
	sh.detach(t)
}

// detach retires hydrated tenant t's filter into the shard's shell
// pool, folding its counters into the limiter base, and takes t off the
// LRU.
//
//p2p:confined tenantshard
func (sh *tshard) detach(t *tenant) {
	f := t.lim.filter.Load()
	t.lim.swapFilter(nil)
	sh.shells = append(sh.shells, f)
	sh.lruRemove(t)
	t.hydrated = false
	sh.hydrated.Add(-1)
	sh.evictions.Add(1)
}

// dropWords returns t's spill record, if it holds one, to the shard's
// spill pool.
//
//p2p:confined tenantshard
func (sh *tshard) dropWords(t *tenant) {
	if t.words != nil {
		sh.spill.put(t.words)
		sh.spillBytes.Add(-8 * int64(len(t.words)))
		t.words = nil
	}
}

// EvictIdle evicts every hydrated tenant whose last packet is at least
// idle behind its shard's activity clock, returning how many were
// evicted. idle 0 evicts everything. Like processing, it is
// single-writer per shard: call it from the goroutine of the direct
// Process and ProcessBatch calls, between batches (a TenantPipeline
// does this automatically).
//
//p2p:confined tenantshard entry
func (m *TenantManager) EvictIdle(idle time.Duration) int {
	n := 0
	for _, sh := range m.shards {
		n += m.evictIdleShard(sh, idle)
	}
	return n
}

// evictIdleShard walks one shard's LRU from the cold end; the list is
// ordered by lastActive (the activity clock is monotone), so the walk
// stops at the first warm tenant.
//
//p2p:confined tenantshard
func (m *TenantManager) evictIdleShard(sh *tshard, idle time.Duration) int {
	n := 0
	for t := sh.lruTail; t != nil; {
		prev := t.prev
		if sh.now-t.lastActive < idle {
			break
		}
		m.evict(t)
		n++
		t = prev
	}
	return n
}

// lruPushFront makes t the most-recently-active entry. Shard LRU lists
// are intrusive — no allocation per touch.
//
//p2p:confined tenantshard
func (sh *tshard) lruPushFront(t *tenant) {
	t.prev = nil
	t.next = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = t
	}
	sh.lruHead = t
	if sh.lruTail == nil {
		sh.lruTail = t
	}
}

// lruRemove unlinks t.
//
//p2p:confined tenantshard
func (sh *tshard) lruRemove(t *tenant) {
	if t.prev != nil {
		t.prev.next = t.next
	} else if sh.lruHead == t {
		sh.lruHead = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else if sh.lruTail == t {
		sh.lruTail = t.prev
	}
	t.prev, t.next = nil, nil
}

// TenantManagerStats summarizes a manager's population and control
// plane; per-tenant activity is available via TenantStats.
type TenantManagerStats struct {
	Tenants  int // registered subscribers
	Hydrated int // tenants currently holding live filter vectors
	// NoTenant counts packets matching no registered subscriber, dropped
	// defensively; Unroutable counts non-IPv4 packets.
	NoTenant   int64
	Unroutable int64
	Hydrations int64 // tenants given live vectors (cumulative)
	Evictions  int64 // tenants spilled (cumulative)
	// SpillBytes is the raw filter words spilled tenants hold now: k·N/8
	// bytes for each spilled tenant whose filter held a mark, nothing
	// for one spilled empty. Records returned to a shard's spill pool
	// are not counted.
	SpillBytes int64
	// ArenaBytes is the total slab storage backing all shards' vectors.
	ArenaBytes int64
}

// Stats returns the manager-level summary. Safe at any time.
func (m *TenantManager) Stats() TenantManagerStats {
	m.mu.Lock()
	tenants := len(m.tenants)
	m.mu.Unlock()
	s := TenantManagerStats{
		Tenants:    tenants,
		NoTenant:   m.noTenant.Load(),
		Unroutable: m.unroutable.Load(),
	}
	for _, sh := range m.shards {
		s.Hydrated += int(sh.hydrated.Load())
		s.Hydrations += sh.hydrations.Load()
		s.Evictions += sh.evictions.Load()
		s.SpillBytes += sh.spillBytes.Load()
		s.ArenaBytes += int64(sh.arena.FootprintBytes())
	}
	return s
}

// TenantStats returns one subscriber's limiter counters. Safe at any
// time; counters are monotone across hydration cycles because eviction
// folds them into the limiter's base.
func (m *TenantManager) TenantStats(id string) (Stats, bool) {
	m.mu.Lock()
	t := m.byID[id]
	m.mu.Unlock()
	if t == nil {
		return Stats{}, false
	}
	return t.lim.Stats(), true
}

// TenantIDs returns the registered tenant IDs in registration order.
func (m *TenantManager) TenantIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, len(m.tenants))
	for i, t := range m.tenants {
		ids[i] = t.id
	}
	return ids
}

// Shards returns the number of tenant shards.
func (m *TenantManager) Shards() int { return len(m.shards) }
