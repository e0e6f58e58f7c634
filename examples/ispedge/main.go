// ISP edge: the usage model of Figure 6, multi-tenant. One process
// hosts every client network behind the edge — a DSL pool, a wireless
// network, and a campus — as tenants of a single TenantManager: each
// subscriber runs the paper's full bitmap-filter + RED pipeline against
// the shared template thresholds, every subscriber's drop probability
// is nested under one aggregate uplink budget, and idle subscribers
// spill their filters to compact snapshots instead of holding vector
// memory. The example replays a merged synthetic workload through the
// manager and prints a per-tenant report plus the control-plane
// footprint, showing that resident filter memory tracks the *active*
// population, not the registered one.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"sort"
	"time"

	"p2pbound"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
	"p2pbound/internal/trace"
)

// subscriber is one client network behind the edge.
type subscriber struct {
	name  string
	cidr  string
	scale float64 // relative traffic volume
}

func main() {
	subs := []subscriber{
		{name: "dsl-pool", cidr: "10.8.0.0/16", scale: 0.03},
		{name: "wireless", cidr: "10.9.0.0/16", scale: 0.02},
		{name: "campus", cidr: "140.112.0.0/16", scale: 0.06},
	}

	mgr, err := p2pbound.NewTenantManager(p2pbound.TenantManagerConfig{
		Tenant: p2pbound.Config{
			LowMbps:  1.0,
			HighMbps: 2.0,
			Seed:     100,
		},
		PrefixBits: 16,
		// The whole uplink's hierarchical-RED budget: even a tenant
		// below its own thresholds sheds unmatched inbound when the
		// aggregate saturates.
		AggregateLowMbps:  4.0,
		AggregateHighMbps: 8.0,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range subs {
		if err := mgr.AddTenant(p2pbound.TenantConfig{ID: s.name, Network: s.cidr}); err != nil {
			log.Fatal(err)
		}
	}

	// One merged packet stream, as the edge router sees it.
	pkts, flows, before, err := mergedWorkload(subs)
	if err != nil {
		log.Fatal(err)
	}

	// Blocked-connection memory (Section 5.3): dropping one packet of a
	// connection blocks the whole connection in both directions — that
	// is what turns inbound drops into bounded upload.
	blocked := make(map[[2]string]bool)
	after := make(map[string]*stats.TimeSeries)
	for _, s := range subs {
		ts, err := stats.NewTimeSeries(time.Second)
		if err != nil {
			log.Fatal(err)
		}
		after[s.name] = ts
	}
	for i := range pkts {
		p := &pkts[i]
		key := flowKey(&p.pub)
		if blocked[key] {
			continue
		}
		if mgr.Process(p.pub) == p2pbound.Drop {
			blocked[key] = true
			continue
		}
		if p.outbound {
			after[p.tenant].Add(p.pub.Timestamp, p.pub.Size)
		}
	}

	rows := make([][]string, 0, len(subs))
	for _, s := range subs {
		ts, _ := mgr.TenantStats(s.name)
		rows = append(rows, []string{
			s.name,
			fmt.Sprintf("%d", flows[s.name]),
			stats.Mbps(before[s.name].MeanRate()),
			stats.Mbps(after[s.name].MeanRate()),
			fmt.Sprintf("%d", ts.Dropped),
		})
	}
	fmt.Println("Multi-tenant ISP edge (one TenantManager, one aggregate uplink budget):")
	fmt.Println(stats.Table([]string{
		"tenant", "conns", "up before", "up after", "dropped",
	}, rows))

	// The control-plane view: spill the now-idle population and show
	// that vector memory is a property of the active set.
	resident := mgr.Stats()
	evicted := mgr.EvictIdle(0)
	spilled := mgr.Stats()
	fmt.Printf("hydrated while active: %d tenants, %d KiB of pooled vectors\n",
		resident.Hydrated, resident.ArenaBytes/1024)
	fmt.Printf("after idling out:      %d evicted, %d KiB of spilled words, vectors recycled for the next active set\n",
		evicted, spilled.SpillBytes/1024)
}

// edgePacket is one packet of the merged stream, annotated with its
// tenant for reporting.
type edgePacket struct {
	pub      p2pbound.Packet
	tenant   string
	outbound bool
}

// mergedWorkload generates a per-subscriber synthetic trace, converts
// everything to public packets, and merges by timestamp.
func mergedWorkload(subs []subscriber) ([]edgePacket, map[string]int, map[string]*stats.TimeSeries, error) {
	var merged []edgePacket
	flows := make(map[string]int)
	before := make(map[string]*stats.TimeSeries)
	for i, s := range subs {
		clientNet, err := packet.ParseNetwork(s.cidr)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := trace.DefaultConfig(45*time.Second, s.scale, uint64(100+i))
		cfg.ClientNet = clientNet
		tr, err := trace.Generate(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		flows[s.name] = len(tr.Flows)
		up, err := stats.NewTimeSeries(time.Second)
		if err != nil {
			return nil, nil, nil, err
		}
		for j := range tr.Packets {
			pkt := &tr.Packets[j]
			if pkt.Dir == packet.Outbound {
				up.Add(pkt.TS, pkt.Len)
			}
			merged = append(merged, edgePacket{
				pub: p2pbound.Packet{
					Timestamp: pkt.TS,
					Protocol:  p2pbound.Protocol(pkt.Pair.Proto),
					SrcAddr:   toNetip(pkt.Pair.SrcAddr), SrcPort: pkt.Pair.SrcPort,
					DstAddr: toNetip(pkt.Pair.DstAddr), DstPort: pkt.Pair.DstPort,
					Size: pkt.Len,
				},
				tenant:   s.name,
				outbound: pkt.Dir == packet.Outbound,
			})
		}
		before[s.name] = up
	}
	sort.SliceStable(merged, func(a, b int) bool {
		return merged[a].pub.Timestamp < merged[b].pub.Timestamp
	})
	return merged, flows, before, nil
}

// flowKey identifies a connection independent of direction.
func flowKey(p *p2pbound.Packet) [2]string {
	a := fmt.Sprintf("%s:%d", p.SrcAddr, p.SrcPort)
	b := fmt.Sprintf("%s:%d", p.DstAddr, p.DstPort)
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func toNetip(a packet.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}
