package p2pbound

import "time"

// TenantPipelineConfig parameterizes a TenantPipeline. The zero value
// of every field selects a sensible default.
type TenantPipelineConfig struct {
	// RingSize is the per-shard ring capacity in packets, rounded up to
	// a power of two. Default 2048.
	RingSize int
	// BatchSize is the maximum number of packets a shard worker drains
	// and decides per wakeup. Default 256.
	BatchSize int
	// OnOverload selects the shed policy for packets arriving at a full
	// shard ring. Default ShedBlock (backpressure).
	OnOverload ShedPolicy
	// EvictAfter, when positive, makes each shard worker spill tenants
	// idle for at least this long whenever its ring runs dry — the lazy
	// eviction half of the hydration lifecycle, running on the shard's
	// single writer so it needs no locks against packet processing. Zero
	// disables automatic eviction (call EvictIdle yourself between
	// quiesced batches).
	EvictAfter time.Duration

	// testGate, when non-nil, holds every shard worker at startup until
	// the channel is closed, exactly as in PipelineConfig.
	testGate <-chan struct{}
}

// TenantPipeline is the concurrent driver for a TenantManager: the
// sharded executor with one worker goroutine per tenant shard, each fed
// by a fixed-capacity ring. Producers route each packet once, at submit
// time, to the ring of the shard owning the packet's subscriber (both
// directions of a subscriber's flows reach the same shard), so every
// tenant's packets are decided by exactly one goroutine — the
// single-writer contract the manager's hydration and eviction machinery
// relies on. Packets matching no subscriber are carried to shard 0 and
// dropped defensively there, preserving the manager's counters.
//
// Decisions are asynchronous, as with Pipeline; use the TenantManager
// directly when per-packet verdicts are needed.
type TenantPipeline struct {
	executor
	m          *TenantManager
	evictAfter time.Duration
}

// NewTenantPipeline starts one worker per tenant shard of m. Close must
// be called to stop the workers. The pipeline assumes ownership of
// packet processing on every shard: do not call m.Process,
// m.ProcessBatch, or m.EvictIdle while the pipeline is open.
func NewTenantPipeline(m *TenantManager, pcfg TenantPipelineConfig) *TenantPipeline {
	p := &TenantPipeline{m: m, evictAfter: pcfg.EvictAfter}
	p.start(p, m.Shards(), pcfg.RingSize, pcfg.BatchSize, pcfg.OnOverload, pcfg.testGate, m.cfg.Telemetry)
	return p
}

// route sends a packet to its subscriber's shard, or to shard 0 for
// packets with no subscriber (worker 0 applies the manager's
// defensive-drop policy to them).
func (p *TenantPipeline) route(r record) int { return p.m.routes.Load().shardOf(&r) }

func (p *TenantPipeline) routeChunk(recs []record, shards []int) {
	rt := p.m.routes.Load()
	for i := range recs {
		shards[i] = rt.shardOf(&recs[i])
	}
}

// decide runs one batch through the manager, scoped to shard sh: a
// packet whose subscriber was registered on another shard after the
// packet was routed is dropped as NoTenant rather than decided here. It
// must only run on shard sh's worker goroutine.
//
//p2p:confined tenantshard entry
func (p *TenantPipeline) decide(sh int, batch []record, dst []Decision) []Decision {
	s := p.m.shards[sh]
	return p.m.processBatch(s.kern, s, batch, dst)
}

// idle spills shard sh's tenants idle for at least EvictAfter whenever
// the ring runs dry. It must only run on shard sh's worker goroutine.
//
//p2p:confined tenantshard entry
func (p *TenantPipeline) idle(sh int, final bool) {
	if !final && p.evictAfter > 0 {
		p.m.evictIdleShard(p.m.shards[sh], p.evictAfter)
	}
}
