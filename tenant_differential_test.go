package p2pbound

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"

	"p2pbound/internal/faultinject"
)

// diffConfig is the limiter configuration the differential tests run on
// both sides: small filter geometry (cheap eviction churn), a rotation
// period short enough that a 30-second trace crosses several rotation
// boundaries, and non-trivial RED thresholds so unmatched inbound
// exercises the P_d draw path (where rng-position divergence would
// show).
func diffConfig() Config {
	return Config{
		ClientNetwork: testNet,
		LowMbps:       0.1,
		HighMbps:      0.5,
		Vectors:       4,
		VectorBits:    14,
		RotateEvery:   5 * time.Second,
		Seed:          7,
	}
}

// diffManager wraps diffConfig in a single-tenant TenantManager whose
// tenant covers exactly the bare limiter's client network. Tenant 0's
// seed is the template seed + 0, so both sides draw identical P_d
// variates.
func diffManager(t *testing.T, mutate func(*TenantManagerConfig)) *TenantManager {
	t.Helper()
	cfg := TenantManagerConfig{Tenant: diffConfig(), PrefixBits: 16, Shards: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewTenantManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant(TenantConfig{ID: "campus", Network: testNet}); err != nil {
		t.Fatal(err)
	}
	return m
}

// runDifferential feeds the same packet stream to a bare Limiter and a
// 1-tenant TenantManager and requires every verdict and every counter to
// agree exactly. evictEvery > 0 forces a full spill/rehydrate cycle on
// the manager side every that many packets — the bare limiter never
// evicts, so equality proves eviction is verdict-invisible.
func runDifferential(t *testing.T, pkts []Packet, mgr *TenantManager, evictEvery int) {
	t.Helper()
	bare, err := New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		want := bare.Process(pkts[i])
		got := mgr.Process(pkts[i])
		if got != want {
			t.Fatalf("packet %d (ts %v): manager says %v, bare limiter says %v", i, pkts[i].Timestamp, got, want)
		}
		if evictEvery > 0 && (i+1)%evictEvery == 0 {
			if n := mgr.EvictIdle(0); n != 1 {
				t.Fatalf("packet %d: EvictIdle evicted %d tenants", i, n)
			}
		}
	}
	checkDifferentialStats(t, bare, mgr, evictEvery)
}

func checkDifferentialStats(t *testing.T, bare *Limiter, mgr *TenantManager, evictEvery int) {
	t.Helper()
	want := bare.Stats()
	got, ok := mgr.TenantStats("campus")
	if !ok {
		t.Fatal("tenant stats missing")
	}
	if got != want {
		t.Fatalf("stats diverge:\nmanager %+v\nbare    %+v", got, want)
	}
	if want.InboundUnmatched == 0 {
		t.Fatal("trace produced no unmatched inbound; the P_d path was never compared")
	}
	ms := mgr.Stats()
	if ms.NoTenant != 0 || ms.Unroutable != 0 {
		t.Fatalf("trace leaked outside the tenant: %+v", ms)
	}
	if evictEvery > 0 && ms.Evictions == 0 {
		t.Fatal("eviction schedule never fired")
	}
}

// TestTenantDifferentialSequential: per-packet verdict and counter
// equality with the tenant permanently resident.
func TestTenantDifferentialSequential(t *testing.T) {
	pkts := publicTrace(t, 30*time.Second, 0.02, 21)
	runDifferential(t, pkts, diffManager(t, nil), 0)
}

// TestTenantDifferentialWithEviction: equality survives a forced
// spill/rehydrate cycle every 64 packets — hundreds of evictions across
// several filter rotations. This is the pin on the hydration contract:
// a rehydrated filter's verdicts, rotation schedule, clamp state, and
// P_d draw sequence are bit-identical to a filter that never left
// memory.
func TestTenantDifferentialWithEviction(t *testing.T) {
	pkts := publicTrace(t, 30*time.Second, 0.02, 22)
	runDifferential(t, pkts, diffManager(t, nil), 64)
}

// TestTenantDifferentialClockRegress: equality holds on a fault-injected
// stream where ~5% of timestamps regress by up to 2Δt, with eviction
// churn on top — the reorder-clamp high-water mark is part of the
// spilled state, so both sides clamp identically.
func TestTenantDifferentialClockRegress(t *testing.T) {
	pkts := publicTrace(t, 30*time.Second, 0.02, 23)
	faultinject.ClockRegress(pkts, func(p *Packet) *time.Duration { return &p.Timestamp }, 0.05, 10*time.Second, 23)
	runDifferential(t, pkts, diffManager(t, nil), 97)
}

// TestTenantDifferentialIdleAggregate: an aggregate budget whose ramp
// never engages (thresholds far above the trace's offered load) must
// leave every verdict bit-identical to a bare limiter — red.Combine's
// exact zero short-circuit, observed end to end.
func TestTenantDifferentialIdleAggregate(t *testing.T) {
	pkts := publicTrace(t, 30*time.Second, 0.02, 24)
	mgr := diffManager(t, func(c *TenantManagerConfig) {
		c.AggregateLowMbps = 1000
		c.AggregateHighMbps = 2000
	})
	runDifferential(t, pkts, mgr, 128)
}

// TestTenantDifferentialBatch: ProcessBatch equality in odd-sized
// chunks. A single-tenant batch is one run through the tenant limiter's
// batch path, so chunking parity with the bare limiter is exact.
func TestTenantDifferentialBatch(t *testing.T) {
	pkts := publicTrace(t, 30*time.Second, 0.02, 25)
	bare, err := New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := diffManager(t, nil)

	const chunk = 509
	want := make([]Decision, 0, chunk)
	got := make([]Decision, 0, chunk)
	for lo := 0; lo < len(pkts); lo += chunk {
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		want = bare.ProcessBatch(pkts[lo:hi], want[:0])
		got = mgr.ProcessBatch(pkts[lo:hi], got[:0])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk at %d, packet %d: manager says %v, bare limiter says %v", lo, i, got[i], want[i])
			}
		}
		mgr.EvictIdle(0) // spill between every chunk
	}
	checkDifferentialStats(t, bare, mgr, 1)
}

// manyTenantManager registers the /30 subscribers of 140.112.0.0/23 on
// two shards, skipping every sixteenth so the trace also carries
// tenantless packets. Both ramps can engage: each subscriber's own and
// the aggregate budget over its shard, so P_d draws move every
// tenant's rng.
func manyTenantManager(t testing.TB, mutate func(*TenantManagerConfig)) *TenantManager {
	t.Helper()
	cfg := TenantManagerConfig{
		Tenant: Config{
			LowMbps:          0.002,
			HighMbps:         0.02,
			Vectors:          4,
			VectorBits:       10,
			RotateEvery:      2 * time.Second,
			ReorderTolerance: 10 * time.Millisecond,
			Seed:             5,
		},
		PrefixBits:        30,
		Shards:            2,
		AggregateLowMbps:  0.05,
		AggregateHighMbps: 0.5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewTenantManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tcs []TenantConfig
	for i := 0; i < 128; i++ {
		if i%16 == 15 {
			continue
		}
		tcs = append(tcs, TenantConfig{Network: netip.AddrFrom4([4]byte{140, 112, byte(i >> 6), byte(i << 2)}).String() + "/30"})
	}
	if err := m.AddTenants(tcs); err != nil {
		t.Fatal(err)
	}
	return m
}

// manyTenantTrace is a seeded trace interleaving a few hundred client
// hosts, put through the reorder, duplicate and clock-regress
// mutators, with a non-IPv4 packet every 997.
func manyTenantTrace(t testing.TB, seed uint64) []Packet {
	t.Helper()
	pkts := publicTrace(t, 30*time.Second, 0.05, seed)
	faultinject.Reorder(pkts, 8, seed)
	pkts = faultinject.Duplicate(pkts, 0.02, seed)
	faultinject.ClockRegress(pkts, func(p *Packet) *time.Duration { return &p.Timestamp }, 0.03, 3*time.Second, seed)
	v6 := Packet{Protocol: UDP, SrcAddr: netip.MustParseAddr("2001:db8::1"), DstAddr: netip.MustParseAddr("2001:db8::2"), Size: 90}
	for i := 997; i < len(pkts); i += 997 {
		v6.Timestamp = pkts[i].Timestamp
		pkts[i] = v6
	}
	return pkts
}

// batchSizes cycles through chunk-boundary sizes: a lone packet, one
// short of a kernel chunk, exactly one, one over, and several.
var batchSizes = []int{1, 63, 64, 65, 257}

// requireTwinsEqual checks that two managers fed the same packets agree
// on every tenant's Stats and on the manager's whole Stats —
// hydrations, evictions, spill bytes, tenantless and unroutable counts.
func requireTwinsEqual(t *testing.T, got, want *TenantManager) {
	t.Helper()
	var sum Stats
	for _, id := range want.TenantIDs() {
		g, _ := got.TenantStats(id)
		w, _ := want.TenantStats(id)
		if g != w {
			t.Fatalf("tenant %s stats diverge:\ngot  %+v\nwant %+v", id, g, w)
		}
		sum.Dropped += w.Dropped
		sum.InboundUnmatched += w.InboundUnmatched
		sum.TimeAnomalies += w.TimeAnomalies
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("manager stats diverge:\ngot  %+v\nwant %+v", g, w)
	}
	ms := want.Stats()
	if sum.Dropped == 0 || sum.InboundUnmatched == 0 || sum.TimeAnomalies == 0 {
		t.Fatalf("trace never exercised P_d draws or clock regressions: %+v", sum)
	}
	if ms.NoTenant == 0 || ms.Unroutable == 0 || ms.Hydrations == 0 {
		t.Fatalf("trace never exercised routing misses or hydration: %+v", ms)
	}
}

// TestTenantDifferentialManyTenants: the cross-tenant batch kernel
// decides exactly what per-packet Process decides, over 120 interleaved
// subscribers on two shards with both RED ramps engaged, through
// reordered, duplicated and clock-regressed input, in batches that
// start and end on every side of a kernel chunk boundary. Every
// verdict, every tenant's counters, and the manager's hydrations and
// evictions must agree exactly — with idle eviction between batches,
// with a hydration cap below the distinct tenants of one chunk, and
// through a TenantPipeline.
func TestTenantDifferentialManyTenants(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*TenantManagerConfig)
		evict    bool // EvictIdle(500ms) on both twins after every batch
		pipeline bool // the batch twin is a TenantPipeline
	}{
		{name: "resident"},
		{name: "evict-between-batches", evict: true},
		{name: "cap-below-chunk", mutate: func(c *TenantManagerConfig) { c.MaxHydratedPerShard = 4 }},
		{name: "pipeline", mutate: func(c *TenantManagerConfig) { c.MaxHydratedPerShard = 8 }, pipeline: true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkts := manyTenantTrace(t, 40+uint64(i))
			batched := manyTenantManager(t, tc.mutate)
			single := manyTenantManager(t, tc.mutate)
			var tp *TenantPipeline
			if tc.pipeline {
				tp = NewTenantPipeline(batched, TenantPipelineConfig{RingSize: 128, BatchSize: 48})
			}
			var aggPd float64
			var wantPass, wantDrop int64
			dst := make([]Decision, 0, 257)
			for lo, b := 0, 0; lo < len(pkts); b++ {
				hi := min(lo+batchSizes[b%len(batchSizes)], len(pkts))
				batch := pkts[lo:hi]
				if tp != nil {
					tp.SubmitBatch(batch)
				} else {
					dst = batched.ProcessBatch(batch, dst[:0])
				}
				for j := range batch {
					want := single.Process(batch[j])
					if want == Pass {
						wantPass++
					} else {
						wantDrop++
					}
					if tp == nil && dst[j] != want {
						t.Fatalf("packet %d (batch of %d): batch kernel says %v, Process says %v", lo+j, len(batch), dst[j], want)
					}
				}
				if tc.evict {
					if got, want := batched.EvictIdle(500*time.Millisecond), single.EvictIdle(500*time.Millisecond); got != want {
						t.Fatalf("batch %d: EvictIdle evicted %d, twin %d", b, got, want)
					}
				}
				for _, sh := range single.shards {
					aggPd = max(aggPd, math.Float64frombits(sh.agg.pdBits.Load()))
				}
				lo = hi
			}
			if tp != nil {
				tp.Drain()
				tp.Close()
				if pass, drop := tp.Verdicts(); pass != wantPass || drop != wantDrop {
					t.Fatalf("pipeline verdicts %d pass %d drop, Process %d pass %d drop", pass, drop, wantPass, wantDrop)
				}
			}
			if aggPd == 0 {
				t.Fatal("the aggregate budget never raised P_d")
			}
			if ev := single.Stats().Evictions; (ev == 0) != (tc.name == "resident") {
				t.Fatalf("%d evictions", ev)
			}
			requireTwinsEqual(t, batched, single)
		})
	}
}

// TestTenantSpillIdentity: a tenant's snapshot bytes do not depend on
// whether it was spilled — the embedded v2 bitmap is rendered from raw
// words either way — and a manager restored from a snapshot, then fed
// more packets, saves exactly what the manager it came from saves.
func TestTenantSpillIdentity(t *testing.T) {
	pkts := manyTenantTrace(t, 50)
	half := len(pkts) / 2
	save := func(m *TenantManager) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := m.SaveTenantState(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	live := manyTenantManager(t, nil)
	spilled := manyTenantManager(t, nil)
	live.ProcessBatch(pkts[:half], nil)
	spilled.ProcessBatch(pkts[:half], nil)
	live.EvictIdle(2 * time.Second) // a mix of hydrated and spilled tenants
	spilled.EvictIdle(2 * time.Second)
	if n := spilled.EvictIdle(0); n == 0 {
		t.Fatal("nothing left hydrated to spill")
	}
	snap := save(live)
	if !bytes.Equal(snap, save(spilled)) {
		t.Fatal("spilling every tenant changed the snapshot bytes")
	}
	if s := live.Stats(); s.Hydrated == 0 || s.SpillBytes == 0 {
		t.Fatalf("snapshot did not cover both hydrated and spilled marked tenants: %+v", s)
	}

	restored := manyTenantManager(t, nil)
	if err := restored.RestoreTenantState(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, save(restored)) {
		t.Fatal("restore changed the snapshot bytes")
	}
	// Outbound packets only, stamped after every restored clock: a
	// restored limiter starts with an empty meter, so an unmatched
	// inbound packet could draw P_d on one side and not the other.
	var next []Packet
	last := pkts[half-1].Timestamp + time.Millisecond
	for _, p := range pkts[half:] {
		if p.SrcAddr.Is4() && netip.MustParsePrefix(testNet).Contains(p.SrcAddr) {
			p.Timestamp = last
			last += time.Millisecond
			next = append(next, p)
		}
	}
	a := live.ProcessBatch(next, nil)
	b := restored.ProcessBatch(next, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: restored manager says %v, original %v", i, b[i], a[i])
		}
	}
	if !bytes.Equal(save(live), save(restored)) {
		t.Fatal("restored manager diverged from the original after more packets")
	}
}
