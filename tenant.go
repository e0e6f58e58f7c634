package p2pbound

import (
	"bytes"
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
	// bit-identical to a bare Limiter.
	AggregateLowMbps  float64
	AggregateHighMbps float64

	// MaxHydratedPerShard caps how many tenants may hold live filter
	// vectors per shard; hydrating past the cap evicts the shard's
	// least-recently-active tenants first. 0 means uncapped.
	MaxHydratedPerShard int

	// SlabVectors is the arena growth unit (vectors per slab); 0 selects
	// the bitvec default.
	SlabVectors int

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
// only while the tenant is hydrated. Evicting spills the filter into
// the v2+CRC32C snapshot format (or, for an empty filter, just the
// rotation and rng state) and recycles its vectors into the shard
// arena.
type tenant struct {
	id   string
	net  packet.Network
	seed uint64
	sh   *tshard
	lim  *Limiter

	hydrated bool //p2p:confined tenantshard
	// spilled marks that rot/rngState hold a real suspended position (a
	// tenant that was hydrated at least once); a never-hydrated tenant
	// starts from the fresh-filter state instead.
	spilled     bool               //p2p:confined tenantshard
	spillBitmap []byte             //p2p:confined tenantshard // v2 core snapshot, nil when empty
	rot         core.RotationState //p2p:confined tenantshard
	rngState    []byte             //p2p:confined tenantshard

	// lastActive is the shard activity clock value of the tenant's most
	// recent packet; the intrusive LRU list below is ordered by it
	// (head = most recent) because the clock is monotone.
	lastActive time.Duration //p2p:confined tenantshard
	prev, next *tenant       //p2p:confined tenantshard
}

// tshard is one single-writer island of the manager: only one goroutine
// at a time may process packets, hydrate, or evict on a given shard
// (the caller's goroutine under direct Process/ProcessBatch, the
// shard's worker under a TenantPipeline). Scrape-facing fields are
// atomics, as everywhere else.
type tshard struct {
	idx   int
	arena *bitvec.Arena
	agg   *aggBudget // nil when the aggregate budget is disabled

	now     time.Duration //p2p:confined tenantshard // monotone activity clock (max packet ts seen)
	lruHead *tenant       //p2p:confined tenantshard
	lruTail *tenant       //p2p:confined tenantshard

	hydrated   atomic.Int64 //p2p:atomic
	hydrations atomic.Int64 //p2p:atomic
	evictions  atomic.Int64 //p2p:atomic
	spillBytes atomic.Int64 //p2p:atomic
}

// routeTable is the immutable per-packet routing state, swapped
// copy-on-write by AddTenants so the lookup takes no lock and performs
// no allocation.
type routeTable struct {
	shift uint
	byKey map[uint32]*tenant
}

// TenantManager multiplexes per-subscriber limiters — O(100k) on one
// process — behind a single Process/ProcessBatch surface: packets are
// routed to their subscriber by CIDR, each subscriber runs the paper's
// full bitmap-filter + RED pipeline against its own thresholds, and
// every subscriber's drop probability is nested under a shared uplink
// budget (hierarchical RED) so one seeding tenant cannot starve the
// edge. Idle tenants spill their filters to the checksummed snapshot
// format and rehydrate verdict-exactly on their next packet.
//
// Concurrency contract: packet processing, hydration, and eviction are
// single-writer per shard (use TenantPipeline for one worker per
// shard); SaveTenantState and RestoreTenantState are control-plane
// calls that must not run concurrently with processing; AddTenants,
// Stats, TenantStats, and telemetry scrapes may run at any time.
type TenantManager struct {
	cfg     TenantManagerConfig
	tmpl    Config
	coreCfg core.Config
	netMask packet.Addr

	routes atomic.Pointer[routeTable] //p2p:atomic

	shards []*tshard

	mu      sync.Mutex
	tenants []*tenant
	byID    map[string]*tenant

	noTenant         atomic.Int64 //p2p:atomic
	unroutable       atomic.Int64 //p2p:atomic
	hydrateFallbacks atomic.Int64 //p2p:atomic
}

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
	window := tmpl.MeterWindow
	if window <= 0 {
		window = 5 * time.Second
	}
	m := &TenantManager{
		cfg:     cfg,
		tmpl:    tmpl,
		coreCfg: coreCfg,
		netMask: packet.Addr(^uint32(0) << (32 - cfg.PrefixBits)),
		shards:  make([]*tshard, cfg.Shards),
		byID:    make(map[string]*tenant),
	}
	for i := range m.shards {
		sh := &tshard{
			idx:   i,
			arena: bitvec.NewArena(1<<coreCfg.NBits, cfg.SlabVectors),
		}
		if cfg.AggregateHighMbps > 0 {
			n := float64(cfg.Shards)
			agg, err := newAggBudget(cfg.AggregateLowMbps*1e6/n, cfg.AggregateHighMbps*1e6/n, window)
			if err != nil {
				return nil, fmt.Errorf("p2pbound: aggregate budget: %w", err)
			}
			sh.agg = agg
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
		sh := m.shards[int(key)%len(m.shards)]
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

// route resolves a packet to its tenant: the source subscriber if the
// source address is registered (the outbound view, matching
// packet.Classify's source preference), else the destination
// subscriber. ok is false for unclassifiable (non-IPv4) packets. The
// lookup is lock-free and allocation-free: one atomic load, a shift,
// and at most two reads of an immutable map.
//
//p2p:hotpath
func (m *TenantManager) route(p *Packet) (t *tenant, ok bool) {
	if !p.SrcAddr.Is4() || !p.DstAddr.Is4() {
		return nil, false
	}
	rt := m.routes.Load()
	s := p.SrcAddr.As4()
	if t := rt.byKey[uint32(packet.AddrFrom4(s[0], s[1], s[2], s[3]))>>rt.shift]; t != nil {
		return t, true
	}
	d := p.DstAddr.As4()
	if t := rt.byKey[uint32(packet.AddrFrom4(d[0], d[1], d[2], d[3]))>>rt.shift]; t != nil {
		return t, true
	}
	return nil, true
}

// Process routes and decides one packet. A packet matching no
// registered subscriber is dropped defensively (counted in
// Stats.NoTenant), exactly as a bare Limiter defensively drops
// unclassifiable packets; a non-IPv4 packet is counted in
// Stats.Unroutable. Single-writer per shard — see the type comment.
//
//p2p:confined tenantshard entry
func (m *TenantManager) Process(p Packet) Decision {
	t, ok := m.route(&p)
	if t == nil {
		if ok {
			m.noTenant.Add(1)
		} else {
			m.unroutable.Add(1)
		}
		return Drop
	}
	m.touch(t, p.Timestamp)
	return t.lim.Process(p)
}

// ProcessBatch routes and decides a timestamp-sorted slice of packets,
// appending one Decision per packet to dst. Consecutive packets of the
// same tenant are decided as one run through the tenant limiter's
// two-pass batch path, so a single-tenant batch costs exactly what the
// bare Limiter.ProcessBatch costs, while a many-tenant interleaving
// degrades gracefully to per-packet decisions.
//
//p2p:confined tenantshard entry
func (m *TenantManager) ProcessBatch(pkts []Packet, dst []Decision) []Decision {
	return m.processBatch(nil, pkts, dst)
}

// processBatch is ProcessBatch, scoped to one shard when owner is
// non-nil: a packet routing to another shard's tenant is dropped and
// counted NoTenant, never decided on a tenant this goroutine does not
// own. That happens only when the tenant was registered after a
// TenantPipeline producer routed the packet as tenantless.
//
//p2p:confined tenantshard
func (m *TenantManager) processBatch(owner *tshard, pkts []Packet, dst []Decision) []Decision {
	var run *tenant
	start := 0
	for i := range pkts {
		t, ok := m.route(&pkts[i])
		if t != nil && owner != nil && t.sh != owner {
			t = nil
		}
		if t == nil {
			if ok {
				m.noTenant.Add(1)
			} else {
				m.unroutable.Add(1)
			}
		}
		if t != run {
			dst = m.flushRun(run, pkts[start:i], dst)
			run, start = t, i
		}
	}
	return m.flushRun(run, pkts[start:], dst)
}

// flushRun decides one same-tenant run (or defensively drops a
// no-tenant run).
//
//p2p:confined tenantshard
func (m *TenantManager) flushRun(t *tenant, run []Packet, dst []Decision) []Decision {
	if len(run) == 0 {
		return dst
	}
	if t == nil {
		for range run {
			dst = append(dst, Drop)
		}
		return dst
	}
	m.touch(t, run[len(run)-1].Timestamp)
	if len(run) == 1 {
		return append(dst, t.lim.Process(run[0]))
	}
	return t.lim.ProcessBatch(run, dst)
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

// hydrate gives t live filter vectors from its shard arena, restoring
// the spilled bitmap, rotation schedule, clamp high-water mark, and rng
// position when the tenant was evicted before — the rehydrated filter's
// subsequent verdicts are bit-identical to one that never left memory.
// Hydrating past MaxHydratedPerShard first evicts the shard's
// least-recently-active tenants.
//
//p2p:confined tenantshard
func (m *TenantManager) hydrate(t *tenant) {
	sh := t.sh
	if max := m.cfg.MaxHydratedPerShard; max > 0 {
		for int(sh.hydrated.Load()) >= max && sh.lruTail != nil {
			m.evict(sh.lruTail)
		}
	}
	var f *core.Filter
	if t.spillBitmap != nil {
		got, err := core.ReadFilterWith(bytes.NewReader(t.spillBitmap), sh.arena)
		if err == nil {
			f = got
		} else {
			// The spill was produced by this process, so a decode failure
			// is memory corruption or a bug; recover fail-closed-ish with
			// a fresh filter (losing marks can only re-challenge flows,
			// never admit unmarked ones) and surface it in stats.
			m.hydrateFallbacks.Add(1)
		}
		sh.spillBytes.Add(-int64(len(t.spillBitmap)))
	}
	if f == nil {
		cfg := m.coreCfg
		cfg.Seed = t.seed
		got, err := core.NewWith(cfg, sh.arena)
		if err != nil {
			// The geometry was validated at construction; this cannot
			// fail without a programming error.
			panic("p2pbound: tenant hydrate: " + err.Error())
		}
		f = got
	}
	if t.spilled {
		if err := f.SetRotationState(t.rot); err != nil {
			panic("p2pbound: tenant hydrate: " + err.Error())
		}
		if t.rngState != nil {
			if err := f.SetRNGState(t.rngState); err != nil {
				m.hydrateFallbacks.Add(1)
			}
		}
	}
	f.SetReorderTolerance(m.coreCfg.ReorderTolerance)
	t.lim.swapFilter(f)
	t.spillBitmap = nil
	t.hydrated = true
	sh.lruPushFront(t)
	sh.hydrated.Add(1)
	sh.hydrations.Add(1)
}

// evict spills t's filter and recycles its vectors into the shard
// arena. An empty filter — the common case for a tenant idle past its
// expiry horizon, since the due-rotation jump clears every vector —
// spills only the ~30-byte rotation/rng record; a filter still holding
// marks spills the full v2+CRC32C snapshot so no admitted flow is
// forgotten. The tenant's counters are folded into its limiter's base
// (monotone Stats across any number of evict/rehydrate cycles).
//
//p2p:confined tenantshard
func (m *TenantManager) evict(t *tenant) {
	if !t.hydrated {
		return
	}
	sh := t.sh
	f := t.lim.filter.Load()
	if f.Empty() {
		t.spillBitmap = nil
	} else {
		var buf bytes.Buffer
		buf.Grow(f.Bytes() + 512)
		if _, err := f.WriteTo(&buf); err != nil {
			// bytes.Buffer writes cannot fail; keep the tenant hydrated
			// rather than lose marks if that ever changes.
			return
		}
		t.spillBitmap = buf.Bytes()
		sh.spillBytes.Add(int64(len(t.spillBitmap)))
	}
	t.rot = f.RotationState()
	if b, err := f.RNGState(); err == nil {
		t.rngState = b
	}
	t.spilled = true
	t.lim.swapFilter(nil)
	if err := f.ReleaseVectors(sh.arena); err != nil {
		panic("p2pbound: tenant evict: " + err.Error())
	}
	sh.lruRemove(t)
	t.hydrated = false
	sh.hydrated.Add(-1)
	sh.evictions.Add(1)
}

// EvictIdle evicts every hydrated tenant whose last packet is at least
// idle behind its shard's activity clock, returning how many were
// evicted. idle 0 evicts everything. Like processing, it is
// single-writer per shard: call it from the processing goroutine,
// between batches (a TenantPipeline does this automatically).
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
	SpillBytes int64 // bytes currently held in spilled bitmap snapshots
	// HydrateFallbacks counts rehydrations that could not decode their
	// spill and restarted from a fresh filter; always zero short of
	// memory corruption.
	HydrateFallbacks int64
	// ArenaBytes is the total slab storage backing all shards' vectors.
	ArenaBytes int64
}

// Stats returns the manager-level summary. Safe at any time.
func (m *TenantManager) Stats() TenantManagerStats {
	m.mu.Lock()
	tenants := len(m.tenants)
	m.mu.Unlock()
	s := TenantManagerStats{
		Tenants:          tenants,
		NoTenant:         m.noTenant.Load(),
		Unroutable:       m.unroutable.Load(),
		HydrateFallbacks: m.hydrateFallbacks.Load(),
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

// shardOf returns the tenant shard index a packet routes to, or -1 for
// packets with no tenant; a TenantPipeline uses it to pick the worker
// ring.
//
//p2p:hotpath
func (m *TenantManager) shardOf(p *Packet) int {
	t, _ := m.route(p)
	if t == nil {
		return -1
	}
	return t.sh.idx
}
