package p2pbound

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"runtime"
	"testing"
	"time"
)

// testTenantTemplate is the per-subscriber limiter template the tenant
// tests share: tiny filter geometry so churn tests can afford thousands
// of tenants, a long rotation period so no mark expires mid-test unless
// a test advances time deliberately.
func testTenantTemplate() Config {
	return Config{
		LowMbps:       0.1,
		HighMbps:      0.5,
		Vectors:       4,
		VectorBits:    10,
		HashFunctions: 3,
		RotateEvery:   time.Hour,
		Seed:          99,
	}
}

// tenantNet24 returns the /24 assigned to tenant index i.
func tenantNet24(i int) string {
	return fmt.Sprintf("10.%d.%d.0/24", (i>>8)&255, i&255)
}

// tenantID24 is the matching tenant id.
func tenantID24(i int) string { return fmt.Sprintf("t%04d", i) }

// newTestManager builds a manager with n /24 subscribers.
func newTestManager(t testing.TB, n int, mutate func(*TenantManagerConfig)) *TenantManager {
	t.Helper()
	cfg := TenantManagerConfig{
		Tenant:     testTenantTemplate(),
		PrefixBits: 24,
		Shards:     1,
	}
	if mutate != nil {
		mutate(&cfg)
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
	return m
}

// tenantOutbound builds an outbound packet of tenant i's flow f.
func tenantOutbound(i, f int, ts time.Duration) Packet {
	return Packet{
		Timestamp: ts, Protocol: TCP,
		SrcAddr: netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 5}),
		SrcPort: uint16(20000 + f),
		DstAddr: netip.AddrFrom4([4]byte{203, 0, byte(f >> 8), byte(f)}),
		DstPort: 6881,
		Size:    120,
	}
}

// tenantInbound is the matching response of tenantOutbound(i, f, _).
func tenantInbound(i, f int, ts time.Duration) Packet {
	o := tenantOutbound(i, f, ts)
	return Packet{
		Timestamp: ts, Protocol: TCP,
		SrcAddr: o.DstAddr, SrcPort: o.DstPort,
		DstAddr: o.SrcAddr, DstPort: o.SrcPort,
		Size: 1400,
	}
}

func TestTenantManagerValidation(t *testing.T) {
	tmpl := testTenantTemplate()
	bad := []TenantManagerConfig{
		{Tenant: tmpl, PrefixBits: 0},
		{Tenant: tmpl, PrefixBits: 33},
		{Tenant: tmpl, PrefixBits: 24, Shards: -1},
		{Tenant: tmpl, PrefixBits: 24, AggregateLowMbps: 10}, // one-sided
		{Tenant: tmpl, PrefixBits: 24, AggregateHighMbps: 10},
		{Tenant: tmpl, PrefixBits: 24, AggregateLowMbps: 5, AggregateHighMbps: -5},   // high below low
		{Tenant: tmpl, PrefixBits: 24, AggregateLowMbps: -10, AggregateHighMbps: -5}, // negative
		{Tenant: tmpl, PrefixBits: 24, MaxHydratedPerShard: -1},
	}
	for i, cfg := range bad {
		if _, err := NewTenantManager(cfg); err == nil {
			t.Errorf("config %d: expected error, got nil", i)
		}
	}

	m, err := NewTenantManager(TenantManagerConfig{Tenant: tmpl, PrefixBits: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant(TenantConfig{ID: "a", Network: "10.0.0.0/24"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []TenantConfig{
		{ID: "b", Network: "10.1.0.0/16"},   // wrong prefix width
		{ID: "c", Network: "not-a-network"}, // unparsable
		{ID: "a", Network: "10.0.1.0/24"},   // duplicate id
		{ID: "d", Network: "10.0.0.0/24"},   // overlapping network
		{ID: "e", Network: "2001:db8::/24"}, // not IPv4
	} {
		if err := m.AddTenant(tc); err == nil {
			t.Errorf("tenant %+v: expected error, got nil", tc)
		}
	}
	// A failed batch must not register its earlier entries.
	err = m.AddTenants([]TenantConfig{
		{ID: "f", Network: "10.0.2.0/24"},
		{ID: "g", Network: "10.1.0.0/16"},
	})
	if err == nil {
		t.Fatal("expected batch error")
	}
	if m.Process(tenantOutbound(2, 1, 0)) != Drop {
		t.Fatal("tenant from failed batch is routable")
	}
}

func TestTenantManagerRouting(t *testing.T) {
	m := newTestManager(t, 2, nil)

	// Outbound routes by source, inbound by destination — both to the
	// same tenant.
	if got := m.Process(tenantOutbound(1, 7, 0)); got != Pass {
		t.Fatalf("outbound verdict = %v", got)
	}
	if got := m.Process(tenantInbound(1, 7, time.Millisecond)); got != Pass {
		t.Fatalf("matched inbound verdict = %v", got)
	}
	s, ok := m.TenantStats(tenantID24(1))
	if !ok {
		t.Fatal("tenant stats missing")
	}
	if s.OutboundPackets != 1 || s.InboundMatched != 1 {
		t.Fatalf("tenant stats = %+v", s)
	}
	if s, _ := m.TenantStats(tenantID24(0)); s.OutboundPackets+s.InboundPackets != 0 {
		t.Fatal("idle tenant saw traffic")
	}

	// No registered subscriber on either end: defensive drop.
	if got := m.Process(tenantOutbound(99, 1, 0)); got != Drop {
		t.Fatalf("no-tenant verdict = %v", got)
	}
	// Non-IPv4: unroutable.
	v6 := Packet{Timestamp: 0, Protocol: TCP, SrcAddr: netip.MustParseAddr("2001:db8::1"), DstAddr: netip.MustParseAddr("2001:db8::2"), Size: 100}
	if got := m.Process(v6); got != Drop {
		t.Fatalf("unroutable verdict = %v", got)
	}
	ms := m.Stats()
	if ms.NoTenant != 1 || ms.Unroutable != 1 || ms.Tenants != 2 {
		t.Fatalf("manager stats = %+v", ms)
	}
	if ids := m.TenantIDs(); len(ids) != 2 || ids[0] != tenantID24(0) {
		t.Fatalf("tenant ids = %v", ids)
	}
}

// TestTenantLifecycle walks one subscriber through the full hydration
// lifecycle: cold start, marked flow, spill with a live bitmap, verdict-
// exact rehydration, and monotone stats throughout.
func TestTenantLifecycle(t *testing.T) {
	m := newTestManager(t, 1, nil)
	id := tenantID24(0)

	if s := m.Stats(); s.Hydrated != 0 {
		t.Fatalf("cold manager hydrated = %d", s.Hydrated)
	}
	m.Process(tenantOutbound(0, 1, 0))
	s := m.Stats()
	if s.Hydrated != 1 || s.Hydrations != 1 {
		t.Fatalf("after first packet: %+v", s)
	}
	if s.ArenaBytes == 0 {
		t.Fatal("no arena storage after hydration")
	}

	if n := m.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle evicted %d", n)
	}
	s = m.Stats()
	if s.Hydrated != 0 || s.Evictions != 1 {
		t.Fatalf("after evict: %+v", s)
	}
	if s.SpillBytes == 0 {
		t.Fatal("marked filter spilled no bitmap")
	}

	// The flow marked before eviction must still match after
	// rehydration: zero false negatives across the spill.
	if got := m.Process(tenantInbound(0, 1, time.Second)); got != Pass {
		t.Fatalf("post-rehydrate matched inbound = %v", got)
	}
	ts, _ := m.TenantStats(id)
	if ts.InboundMatched != 1 || ts.OutboundPackets != 1 {
		t.Fatalf("post-rehydrate stats = %+v", ts)
	}
	s = m.Stats()
	if s.Hydrated != 1 || s.Hydrations != 2 || s.SpillBytes != 0 {
		t.Fatalf("after rehydrate: %+v", s)
	}
}

// TestTenantEmptyEvictFastPath: a tenant hydrated by inbound-only
// traffic holds no marks, so its eviction spills only the rotation/rng
// record — no bitmap bytes.
func TestTenantEmptyEvictFastPath(t *testing.T) {
	m := newTestManager(t, 1, nil)
	m.Process(tenantInbound(0, 1, 0)) // unmatched inbound, P_d=0 → Pass, marks nothing
	if n := m.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d", n)
	}
	if s := m.Stats(); s.SpillBytes != 0 {
		t.Fatalf("empty filter spilled %d bytes", s.SpillBytes)
	}
	// Rehydrates cleanly from the stateless record.
	if got := m.Process(tenantOutbound(0, 2, time.Second)); got != Pass {
		t.Fatalf("post-rehydrate outbound = %v", got)
	}
	if got := m.Process(tenantInbound(0, 2, 2*time.Second)); got != Pass {
		t.Fatalf("post-rehydrate matched inbound = %v", got)
	}
}

// TestTenantMaxHydratedLRU: the hydration cap evicts the least-recently-
// active tenant first.
func TestTenantMaxHydratedLRU(t *testing.T) {
	m := newTestManager(t, 3, func(c *TenantManagerConfig) { c.MaxHydratedPerShard = 2 })
	m.Process(tenantOutbound(0, 1, 1*time.Second))
	m.Process(tenantOutbound(1, 1, 2*time.Second))
	m.Process(tenantOutbound(0, 2, 3*time.Second)) // t0 now most recent
	m.Process(tenantOutbound(2, 1, 4*time.Second)) // cap hit: t1 (coldest) evicts

	if m.byID[tenantID24(1)].hydrated {
		t.Fatal("LRU victim t1 still hydrated")
	}
	if !m.byID[tenantID24(0)].hydrated || !m.byID[tenantID24(2)].hydrated {
		t.Fatal("wrong tenant evicted")
	}
	s := m.Stats()
	if s.Hydrated != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The evicted tenant's mark survives the forced spill.
	if got := m.Process(tenantInbound(1, 1, 5*time.Second)); got != Pass {
		t.Fatalf("evicted tenant's marked inbound = %v", got)
	}
	if s := m.Stats(); s.Hydrated != 2 || s.Evictions != 2 {
		t.Fatalf("stats after rehydrate = %+v", s)
	}
}

// TestTenantArenaRecycling: hydration churn resets pooled filter shells,
// vectors and all, so the arena stops growing once it holds the peak
// hydrated population.
func TestTenantArenaRecycling(t *testing.T) {
	m := newTestManager(t, 8, nil)
	for i := 0; i < 8; i++ {
		m.Process(tenantOutbound(i, 1, time.Duration(i)*time.Millisecond))
	}
	grown := m.Stats().ArenaBytes
	for round := 0; round < 20; round++ {
		m.EvictIdle(0)
		for i := 0; i < 8; i++ {
			m.Process(tenantOutbound(i, round+2, time.Duration(round*10+i)*time.Millisecond))
		}
	}
	if got := m.Stats().ArenaBytes; got != grown {
		t.Fatalf("arena grew under steady churn: %d -> %d bytes", grown, got)
	}
}

// TestTenantSnapshotRoundTrip: SaveTenantState/RestoreTenantState carry
// every tenant's marks across a process boundary, whatever hydration
// state each tenant was in, and fold counters monotonically.
func TestTenantSnapshotRoundTrip(t *testing.T) {
	build := func() *TenantManager { return newTestManager(t, 3, nil) }

	a := build()
	a.Process(tenantOutbound(0, 1, 0))                // t0: hydrated with marks
	a.Process(tenantOutbound(1, 1, time.Millisecond)) // t1: marked, then evicted
	a.EvictIdle(0)
	// t2 never hydrated.
	var snap bytes.Buffer
	if err := a.SaveTenantState(&snap); err != nil {
		t.Fatal(err)
	}

	b := build()
	// Pre-restore traffic so the restore must fold live state.
	b.Process(tenantOutbound(0, 9, 0))
	before, _ := b.TenantStats(tenantID24(0))
	if err := b.RestoreTenantState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	after, _ := b.TenantStats(tenantID24(0))
	if after.OutboundPackets < before.OutboundPackets {
		t.Fatalf("restore rewound stats: %+v -> %+v", before, after)
	}

	// Marks from manager A admit inbound on manager B.
	for i := 0; i < 2; i++ {
		if got := b.Process(tenantInbound(i, 1, time.Second)); got != Pass {
			t.Fatalf("tenant %d restored inbound = %v", i, got)
		}
		s, _ := b.TenantStats(tenantID24(i))
		if s.InboundMatched == 0 {
			t.Fatalf("tenant %d inbound did not match restored bitmap: %+v", i, s)
		}
	}
	// t2 was never hydrated; it restores to the fresh state.
	if b.byID[tenantID24(2)].spilled {
		t.Fatal("never-hydrated tenant restored as spilled")
	}

	// A's own state is unharmed by saving (serialized in place).
	if got := a.Process(tenantInbound(0, 1, time.Second)); got != Pass {
		t.Fatalf("source manager inbound after save = %v", got)
	}
}

// TestTenantSnapshotErrors: every malformed stream is rejected with its
// typed sentinel and leaves the manager byte-for-byte untouched.
func TestTenantSnapshotErrors(t *testing.T) {
	m := newTestManager(t, 2, nil)
	m.Process(tenantOutbound(0, 1, 0))
	var snap bytes.Buffer
	if err := m.SaveTenantState(&snap); err != nil {
		t.Fatal(err)
	}
	valid := snap.Bytes()

	reseal := func(b []byte) []byte {
		// Recompute the trailer so structural mutations survive the
		// checksum gate and exercise the deeper validation.
		body := b[:len(b)-4]
		out := append(append([]byte(nil), body...), 0, 0, 0, 0)
		sum := crc32.Checksum(body, tenantCastagnoli)
		out[len(out)-4], out[len(out)-3], out[len(out)-2], out[len(out)-1] =
			byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
		return out
	}

	mutate := func(b []byte, f func([]byte)) []byte {
		c := append([]byte(nil), b...)
		f(c)
		return c
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTenantSnapshotCorrupt},
		{"bad magic", mutate(valid, func(b []byte) { b[0] ^= 0xff }), ErrTenantSnapshotMagic},
		{"future version", reseal(mutate(valid, func(b []byte) { b[4] = 99 })), ErrTenantSnapshotVersion},
		{"flipped payload", mutate(valid, func(b []byte) { b[20] ^= 0x10 }), ErrTenantSnapshotChecksum},
		{"flipped trailer", mutate(valid, func(b []byte) { b[len(b)-1] ^= 0x80 }), ErrTenantSnapshotChecksum},
		{"count exceeds stream", reseal(mutate(valid, func(b []byte) { b[12] = 0xff })), ErrTenantSnapshotCorrupt},
		{"truncated frame", reseal(valid[:len(valid)-10]), ErrTenantSnapshotCorrupt},
		{"prefix bits out of range", reseal(mutate(valid, func(b []byte) { b[8] = 0 })), ErrTenantSnapshotCorrupt},
	}
	for _, tc := range cases {
		before := m.Stats()
		err := m.RestoreTenantState(bytes.NewReader(tc.data))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if after := m.Stats(); after != before {
			t.Errorf("%s: failed restore mutated the manager: %+v -> %+v", tc.name, before, after)
		}
	}

	// Unknown tenant: structurally valid snapshot from a manager with a
	// subscriber this one lacks.
	m3 := newTestManager(t, 3, nil)
	var snap3 bytes.Buffer
	if err := m3.SaveTenantState(&snap3); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreTenantState(bytes.NewReader(snap3.Bytes())); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant err = %v", err)
	}

	// Prefix-width mismatch.
	m16, err := NewTenantManager(TenantManagerConfig{Tenant: testTenantTemplate(), PrefixBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := m16.RestoreTenantState(bytes.NewReader(valid)); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("prefix width err = %v", err)
	}

	// Embedded filter geometry mismatch: same tenants, different vector
	// size.
	mGeom := newTestManager(t, 2, func(c *TenantManagerConfig) { c.Tenant.VectorBits = 12 })
	if err := mGeom.RestoreTenantState(bytes.NewReader(valid)); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("filter geometry err = %v", err)
	}

	// The survivor still works.
	if got := m.Process(tenantInbound(0, 1, time.Second)); got != Pass {
		t.Fatalf("manager broken after rejected restores: %v", got)
	}
}

// TestTenantPipelineMatchesDirect: the pipeline decides exactly what
// direct manager calls decide — per-shard single-writer order makes the
// verdict totals and every tenant's counters deterministic for a single
// producer.
func TestTenantPipelineMatchesDirect(t *testing.T) {
	pkts := make([]Packet, 0, 4096)
	for i := 0; i < 1024; i++ {
		ten := i % 8
		ts := time.Duration(i) * time.Millisecond
		pkts = append(pkts, tenantOutbound(ten, i/8, ts), tenantInbound(ten, i/8, ts+time.Millisecond))
		if i%64 == 0 {
			pkts = append(pkts, tenantOutbound(200, 0, ts)) // no such tenant
		}
		if i%16 == 0 {
			pkts = append(pkts, tenantInbound(i/16%8, i+5000, ts)) // unmatched
		}
	}

	direct := newTestManager(t, 8, func(c *TenantManagerConfig) { c.Shards = 2 })
	var dPass, dDrop int64
	verdicts := direct.ProcessBatch(pkts, nil)
	for _, v := range verdicts {
		if v == Pass {
			dPass++
		} else {
			dDrop++
		}
	}

	piped := newTestManager(t, 8, func(c *TenantManagerConfig) { c.Shards = 2 })
	p := NewTenantPipeline(piped, TenantPipelineConfig{RingSize: 256, BatchSize: 64})
	p.SubmitBatch(pkts)
	p.Drain()
	p.Close()
	pPass, pDrop := p.Verdicts()
	if pPass != dPass || pDrop != dDrop {
		t.Fatalf("pipeline verdicts (%d pass, %d drop) != direct (%d pass, %d drop)", pPass, pDrop, dPass, dDrop)
	}
	if ds, ps := direct.Stats(), piped.Stats(); ds != ps {
		t.Fatalf("manager stats diverge:\ndirect   %+v\npipeline %+v", ds, ps)
	}
	for _, id := range direct.TenantIDs() {
		ds, _ := direct.TenantStats(id)
		ps, _ := piped.TenantStats(id)
		if ds != ps {
			t.Fatalf("tenant %s stats diverge:\ndirect   %+v\npipeline %+v", id, ds, ps)
		}
		if ds.OutboundPackets == 0 || ds.InboundUnmatched == 0 {
			t.Fatalf("tenant %s saw too little traffic: %+v", id, ds)
		}
	}
}

// TestTenantPipelineAddTenantRoutesOnce: a packet is decided on the
// shard its producer routed it to. A packet queued as tenantless stays
// tenantless when its subscriber is registered on another shard before
// the worker reaches it — it must not be decided by a worker that does
// not own the tenant.
func TestTenantPipelineAddTenantRoutesOnce(t *testing.T) {
	m := newTestManager(t, 2, func(c *TenantManagerConfig) { c.Shards = 2 })
	gate := make(chan struct{})
	p := NewTenantPipeline(m, TenantPipelineConfig{testGate: gate})
	p.Submit(tenantOutbound(3, 1, 0)) // tenant 3 unknown: ring 0
	// Key 0x0A0003 is odd, so tenant 3 lands on shard 1.
	if err := m.AddTenant(TenantConfig{ID: tenantID24(3), Network: tenantNet24(3)}); err != nil {
		t.Fatal(err)
	}
	p.Submit(tenantOutbound(3, 2, time.Millisecond)) // ring 1
	close(gate)
	p.Drain()
	p.Close()
	s, ok := m.TenantStats(tenantID24(3))
	if !ok {
		t.Fatal("tenant 3 not registered")
	}
	if s.OutboundPackets != 1 || m.Stats().NoTenant != 1 {
		t.Fatalf("outbound=%d noTenant=%d, want 1 and 1", s.OutboundPackets, m.Stats().NoTenant)
	}
}

// TestTenantPipelineEvictAfter: shard workers spill idle tenants on
// their own once the ring runs dry.
func TestTenantPipelineEvictAfter(t *testing.T) {
	m := newTestManager(t, 2, nil)
	p := NewTenantPipeline(m, TenantPipelineConfig{EvictAfter: time.Second})
	defer p.Close()
	p.Submit(tenantOutbound(0, 1, 0))
	p.Submit(tenantOutbound(1, 1, time.Millisecond))
	// Advance the shard activity clock far past the horizon for t0/t1,
	// keeping t1 warm.
	p.Submit(tenantOutbound(1, 2, 10*time.Second))
	p.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never evicted the idle tenant")
		}
		time.Sleep(time.Millisecond)
	}
	if s := m.Stats(); s.Hydrated != 1 {
		t.Fatalf("stats after idle eviction: %+v", s)
	}
}

// TestTenantProcessZeroAlloc holds the acceptance bar for per-packet
// tenant routing: steady-state Process and ProcessBatch through the
// manager allocate nothing.
func TestTenantProcessZeroAlloc(t *testing.T) {
	m := newTestManager(t, 4, nil)
	var seq int
	mk := func() (Packet, Packet) {
		seq++
		ts := time.Duration(seq) * time.Millisecond
		return tenantOutbound(seq%4, seq, ts), tenantInbound(seq%4, seq, ts)
	}
	// Hydrate everyone before measuring.
	for i := 0; i < 8; i++ {
		o, in := mk()
		m.Process(o)
		m.Process(in)
	}
	if avg := testing.AllocsPerRun(200, func() {
		o, in := mk()
		if m.Process(o) != Pass {
			t.Fatal("outbound dropped")
		}
		m.Process(in)
	}); avg != 0 {
		t.Fatalf("Process allocates %.1f/op", avg)
	}

	batch := make([]Packet, 0, 64)
	for i := 0; i < 64; i++ {
		o, _ := mk()
		batch = append(batch, o)
	}
	dst := make([]Decision, 0, len(batch))
	if avg := testing.AllocsPerRun(100, func() {
		dst = m.ProcessBatch(batch, dst[:0])
	}); avg != 0 {
		t.Fatalf("ProcessBatch allocates %.1f/op", avg)
	}
}

// TestTenantHydrationCycleAllocs guards the spill path against
// per-spill buffers: once a shard's shell and spill pools are warm,
// evicting a marked tenant and rehydrating it on its next packet
// allocates nothing proportional to its filter — under 1 KiB a cycle.
func TestTenantHydrationCycleAllocs(t *testing.T) {
	m := newTestManager(t, 1, func(c *TenantManagerConfig) { c.Tenant.VectorBits = 14 })
	out := tenantOutbound(0, 1, 0)
	m.Process(out)
	cycle := func() {
		m.EvictIdle(0)
		m.Process(out)
	}
	cycle() // warm the pools
	m.EvictIdle(0)
	if s := m.Stats(); s.SpillBytes != 4<<14/8 {
		t.Fatalf("marked tenant spilled %d bytes, want its 4×2^14 bits", s.SpillBytes)
	}
	m.Process(out)
	const cycles = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 1024 {
		t.Fatalf("evict and rehydrate allocate %d B a cycle, want under 1 KiB", per)
	}
	if s := m.Stats(); s.Hydrations != cycles+3 {
		t.Fatalf("stats after the cycles: %+v", s)
	}
}

// TestTenantHierarchicalRED: pressure from one seeding tenant raises
// every shard-mate's drop probability through the aggregate budget,
// while a disabled budget leaves tenants fully independent.
func TestTenantHierarchicalRED(t *testing.T) {
	run := func(aggLow, aggHigh float64) (quietDropped int64) {
		m := newTestManager(t, 2, func(c *TenantManagerConfig) {
			c.Tenant.LowMbps = 1000 // per-tenant ramp never engages
			c.Tenant.HighMbps = 2000
			c.AggregateLowMbps = aggLow
			c.AggregateHighMbps = aggHigh
		})
		ts := time.Duration(0)
		for i := 0; i < 4000; i++ {
			ts += 50 * time.Microsecond
			// Tenant 0 seeds hard: large outbound packets drive the
			// shared meter.
			seeder := tenantOutbound(0, i, ts)
			seeder.Size = 60000
			m.Process(seeder)
			// Tenant 1 receives unmatched inbound (P2P-request shape).
			m.Process(tenantInbound(1, i+50000, ts))
		}
		s, _ := m.TenantStats(tenantID24(1))
		if s.InboundUnmatched == 0 {
			t.Fatal("no unmatched inbound generated")
		}
		return s.Dropped
	}
	if d := run(0, 0); d != 0 {
		t.Fatalf("disabled aggregate dropped %d quiet-tenant packets", d)
	}
	if d := run(0.5, 2); d == 0 {
		t.Fatal("aggregate pressure never reached the quiet tenant")
	}
}

// TestTenantManagerTelemetry: the manager's control-plane series land
// in the registry, including per-tenant series when opted in.
func TestTenantManagerTelemetry(t *testing.T) {
	tel := NewTelemetry()
	m := newTestManager(t, 2, func(c *TenantManagerConfig) {
		c.Telemetry = tel
		c.PerTenantTelemetry = true
		c.AggregateLowMbps = 1
		c.AggregateHighMbps = 2
	})
	m.Process(tenantOutbound(0, 1, 0))
	m.EvictIdle(0)
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"p2pbound_tenants",
		"p2pbound_tenants_hydrated",
		"p2pbound_tenant_hydrations_total",
		"p2pbound_tenant_evictions_total",
		"p2pbound_tenant_arena_bytes",
		"p2pbound_aggregate_pd",
		`p2pbound_tenant_packets_total{dir="outbound",tenant="t0000"}`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("telemetry missing %q", want)
		}
	}
}
