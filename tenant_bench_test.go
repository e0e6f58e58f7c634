package p2pbound

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// benchTenantManager builds n /20 subscribers under one manager. The
// address plan keeps every tenant prefix disjoint from the remote
// addresses the packets use, so routing is always a real lookup.
func benchTenantManager(b *testing.B, n int) *TenantManager {
	b.Helper()
	m, err := NewTenantManager(TenantManagerConfig{
		Tenant: Config{
			LowMbps: 1, HighMbps: 5,
			Vectors: 4, VectorBits: 12,
			RotateEvery:      time.Hour,
			ReorderTolerance: time.Hour, // timestamps replay across iterations
			Seed:             9,
		},
		PrefixBits: 20,
		Shards:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tcs := make([]TenantConfig, n)
	for i := range tcs {
		base := 0x0A000000 + uint32(i)<<12
		tcs[i] = TenantConfig{Network: fmt.Sprintf("%d.%d.%d.%d/20",
			byte(base>>24), byte(base>>16), byte(base>>8), byte(base))}
	}
	if err := m.AddTenants(tcs); err != nil {
		b.Fatal(err)
	}
	return m
}

// benchTenantBatch builds one reusable batch of outbound packets spread
// round-robin over the first active tenants — the idle-mostly shape of
// an ISP edge, where most of a 100k population is spilled and only a
// working set touches the hot path.
func benchTenantBatch(size, tenants, active int) []Packet {
	if active > tenants {
		active = tenants
	}
	pkts := make([]Packet, size)
	for i := range pkts {
		base := 0x0A000000 + uint32(i%active)<<12
		pkts[i] = Packet{
			Timestamp: time.Duration(i) * 10 * time.Microsecond,
			Protocol:  TCP,
			SrcAddr:   netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base) | 9}),
			SrcPort:   uint16(30000 + i%1000),
			DstAddr:   netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}),
			DstPort:   6881,
			Size:      1200,
		}
	}
	return pkts
}

// BenchmarkTenantManagerProcessBatch measures per-packet cost of the
// multi-tenant hot path at three population scales. The 100k case is
// the acceptance bar for the control plane: an idle-mostly population
// two orders of magnitude larger than the active set must still route
// and decide with zero allocations per operation. Their 256 active
// 2^12-bit tenants fit in L2; the cold case has the shape of an ISP
// edge instead, whose per-tenant state misses every cache.
func BenchmarkTenantManagerProcessBatch(b *testing.B) {
	b.Run("tenants=16384/cold", benchTenantCold)
	for _, tenants := range []int{1, 1000, 100000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			m := benchTenantManager(b, tenants)
			const batchSize = 4096
			pkts := benchTenantBatch(batchSize, tenants, 256)
			dst := make([]Decision, 0, batchSize)
			dst = m.ProcessBatch(pkts, dst[:0]) // hydrate the working set
			b.SetBytes(int64(batchSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.ProcessBatch(pkts, dst[:0])
			}
			b.StopTimer()
			if s := m.Stats(); s.NoTenant != 0 || s.Unroutable != 0 {
				b.Fatalf("benchmark traffic missed the tenant set: %+v", s)
			}
		})
	}
}

// benchTenantCold has the shape of p2pbench's tenants workload: 16,384
// /30 subscribers with 2^14-bit vectors under an aggregate budget, 4,096
// of them active at a time in interleaved order, and EvictIdle(1s) every
// 4,096-packet batch. The active window slides by 32 subscribers per
// batch, so about 8 subscribers per 1,000 packets go idle, spill, and —
// once the window wraps around the population — rehydrate from their
// spilled words. Filters and spill records total some 130 MB, far past
// any cache. An op is one batch; ns/pkt is the per-packet cost.
func benchTenantCold(b *testing.B) {
	const (
		tenants   = 1 << 14
		active    = 4096
		slide     = 32
		batchSize = 4096
	)
	m, err := NewTenantManager(TenantManagerConfig{
		Tenant:            Config{VectorBits: 14, LowMbps: 0.05, HighMbps: 0.2, Seed: 9},
		PrefixBits:        30,
		AggregateLowMbps:  50,
		AggregateHighMbps: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	tcs := make([]TenantConfig, tenants)
	for i := range tcs {
		tcs[i] = TenantConfig{Network: netip.AddrFrom4([4]byte{10, 0, byte(i >> 6), byte(i << 2)}).String() + "/30"}
	}
	if err := m.AddTenants(tcs); err != nil {
		b.Fatal(err)
	}
	batch := make([]Packet, batchSize)
	dst := make([]Decision, 0, batchSize)
	// fill builds batch n: each active subscriber's host 1 sends on flow
	// n/2 in even batches and hears back on it in odd ones; every eighth
	// response comes from an unsolicited port instead. The window moves
	// only between pairs of batches, so a response finds its sender.
	fill := func(n int) {
		for i := range batch {
			tn := ((n&^1)*slide + i%active) % tenants
			host := netip.AddrFrom4([4]byte{10, 0, byte(tn >> 6), byte(tn<<2) | 1})
			remote := netip.AddrFrom4([4]byte{203, 0, byte(n >> 9), byte(n >> 1)})
			p := Packet{
				Timestamp: time.Duration(n*batchSize+i) * 50 * time.Microsecond,
				Protocol:  TCP,
				SrcAddr:   host, SrcPort: uint16(20000 + i%1000),
				DstAddr: remote, DstPort: 6881,
				Size: 1200,
			}
			if n%2 == 1 {
				p.SrcAddr, p.DstAddr = remote, host
				p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
				if i%8 == 0 {
					p.SrcPort = 7000
				}
			}
			batch[i] = p
		}
	}
	n := 0
	step := func() {
		fill(n)
		n++
		dst = m.ProcessBatch(batch, dst[:0])
		m.EvictIdle(time.Second)
	}
	// Warm up through one full turn of the window around the population,
	// so spilled subscribers are coming back when the timer starts.
	for n < tenants/slide {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill(n)
		n++
		b.StartTimer()
		dst = m.ProcessBatch(batch, dst[:0])
		m.EvictIdle(time.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/pkt")
	if s := m.Stats(); s.NoTenant != 0 || s.Unroutable != 0 || s.Hydrations <= tenants {
		b.Fatalf("benchmark traffic missed the intended shape: %+v", s)
	}
}

// BenchmarkTenantHydrationCycle measures one full evict-and-rehydrate
// round trip for a tenant with a marked filter — the cost a spilled
// subscriber pays on its first packet back.
func BenchmarkTenantHydrationCycle(b *testing.B) {
	m := benchTenantManager(b, 1)
	out := benchTenantBatch(1, 1, 1)[0]
	m.Process(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvictIdle(0)
		m.Process(out)
	}
}
