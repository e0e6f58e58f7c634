package p2pbound

import (
	"fmt"
	"sort"

	"p2pbound/internal/offload"
)

// This file bridges the limiter tiers to the kernel-offload flat map
// (internal/offload, DESIGN.md §17). Each tier exports its filters
// into map sections the in-process FastPath simulator — or a real
// XDP/DPDK stage fed the serialized image — probes without touching
// the Go data structures:
//
//   - Limiter: one section, published from the processing goroutine.
//   - ShardedLimiter / Pipeline: one section per shard, keyed by shard
//     index; each pipeline worker publishes its own section on a batch
//     cadence, so publication needs no cross-shard coordination.
//   - TenantManager: one section per registered tenant, keyed by the
//     BMTM route key (subscriber prefix >> (32−PrefixBits)) and the
//     tenant-id hash, published control-plane like SaveState.

// NewOffloadMap allocates a single-section flat map matching the
// limiter's filter geometry. Publish into it with PublishOffload.
func (l *Limiter) NewOffloadMap() (*offload.Map, error) {
	f := l.filter.Load()
	m, err := offload.NewMap(offload.GeometryOf(f.Config()), 1, 0)
	if err != nil {
		return nil, err
	}
	m.SetSectionKey(0, 0, l.clientNet.String())
	return m, nil
}

// PublishOffload exports the limiter's current filter state into
// section 0 of an offload map created by NewOffloadMap. Call it from
// the processing goroutine between batches; it never blocks concurrent
// FastPath readers. Publication is incremental: it rewrites only the
// 512-bit blocks marked since the last publish into this map. A vector
// a rotation cleared, a filter swapped in by RestoreState or AdoptState,
// and a vector last published into another map are compared in full
// instead (see offload.Section.Publish).
//
//p2p:confined limproc entry
func (l *Limiter) PublishOffload(m *offload.Map) error {
	return m.Section(0).Publish(l.filter.Load())
}

// NewOffloadMap allocates a flat map with one section per shard, keyed
// by shard index. All shards share one geometry, so the whole sharded
// limiter exports as a single buffer; a consumer routes a packet to
// its section with the same ShardOf fanout the pipeline uses.
func (s *ShardedLimiter) NewOffloadMap() (*offload.Map, error) {
	g := offload.GeometryOf(s.shards[0].filter.Load().Config())
	m, err := offload.NewMap(g, len(s.shards), 0)
	if err != nil {
		return nil, err
	}
	for i := range s.shards {
		m.SetSectionKey(i, uint32(i), fmt.Sprintf("shard-%d", i))
	}
	return m, nil
}

// PublishOffloadShard exports shard sh's filter into its map section.
// Single-writer per shard, like processing: each shard's owning
// goroutine publishes only its own section, so a pipeline's workers
// publish concurrently without coordination.
//
//p2p:confined limproc entry
func (s *ShardedLimiter) PublishOffloadShard(m *offload.Map, sh int) error {
	return m.Section(sh).Publish(s.shards[sh].filter.Load())
}

// OffloadMap returns the flat map the pipeline's workers publish into,
// or nil when PipelineConfig.OffloadEvery was zero. Probe it with
// offload.NewFastPath; route probes to sections by ShardOf order
// (section index == shard index).
func (p *Pipeline) OffloadMap() *offload.Map { return p.offloadMap }

// TenantOffload exports a TenantManager's per-tenant filters into one
// flat map, one section per tenant in ascending route-key order (the
// directory layout FastPath.SectionFor binary-searches). The map is
// sized at construction: tenants registered after NewOffload are not
// covered until a new TenantOffload is built — the same rebuild
// discipline as the manager's own SaveState snapshots.
type TenantOffload struct {
	mgr *TenantManager
	m   *offload.Map
	// byTenant pairs each map section with its tenant, in section order.
	byTenant []*tenant
}

// NewOffload builds a flat map covering every currently registered
// tenant. Control-plane call: do not run it concurrently with packet
// processing (like SaveTenantState).
func (m *TenantManager) NewOffload() (*TenantOffload, error) {
	m.mu.Lock()
	tenants := make([]*tenant, len(m.tenants))
	copy(tenants, m.tenants)
	m.mu.Unlock()
	if len(tenants) == 0 {
		return nil, fmt.Errorf("p2pbound: NewOffload on a manager with no tenants")
	}
	shift := uint(32 - m.cfg.PrefixBits)
	sort.Slice(tenants, func(i, j int) bool {
		return uint32(tenants[i].net.Prefix)>>shift < uint32(tenants[j].net.Prefix)>>shift
	})
	om, err := offload.NewMap(offload.GeometryOf(m.coreCfg), len(tenants), m.cfg.PrefixBits)
	if err != nil {
		return nil, err
	}
	for i, t := range tenants {
		om.SetSectionKey(i, uint32(t.net.Prefix)>>shift, t.id)
	}
	return &TenantOffload{mgr: m, m: om, byTenant: tenants}, nil
}

// Map returns the flat map, for probing or serialization.
func (to *TenantOffload) Map() *offload.Map { return to.m }

// Publish exports every hydrated tenant's filter into its section and
// marks evicted tenants' sections dead (their stale bits become
// unreachable — probes escalate, and the slow path rehydrates the
// tenant exactly as it would without an offload tier). Single-writer
// per shard like processing: call it between batches from the
// processing goroutine, or under the same exclusion as EvictIdle.
//
//p2p:confined tenantshard entry
func (to *TenantOffload) Publish() error {
	for i, t := range to.byTenant {
		sec := to.m.Section(i)
		if !t.hydrated {
			if sec.Live() {
				sec.SetLive(false)
			}
			continue
		}
		if err := sec.Publish(t.lim.filter.Load()); err != nil {
			return fmt.Errorf("p2pbound: offload publish tenant %q: %w", t.id, err)
		}
	}
	return nil
}
