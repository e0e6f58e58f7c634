// BenchmarkOffloadEndToEnd measures the two-tier kernel-offload split
// (DESIGN.md §17): an offload.FastPath probing the flat verdict map
// first, with misses travelling the bounded ring to the Go slow path.
// Two tiers bound the design space:
//
//	tier=fastpath-hit  — steady state for established traffic: every
//	                     probe answers from the flat map alone (the
//	                     XDP analogue: no Go limiter involvement, no
//	                     allocation). This is the number to compare
//	                     against BenchmarkIngestEndToEnd's full path.
//	tier=escalate-all  — worst case: a cold map escalates every packet
//	                     through the miss ring to Limiter.Process, so
//	                     the split costs probe + ring on top of the
//	                     full slow path.
package p2pbound

import (
	"net/netip"
	"testing"
	"time"

	"p2pbound/internal/offload"
)

// offloadBenchTrace is the shared probe workload: the differential
// tests' deterministic flow mix at ingest-bench scale.
func offloadBenchTrace() []offPkt {
	return offTraffic(40000, 25*time.Microsecond)
}

func BenchmarkOffloadEndToEnd(b *testing.B) {
	pkts := offloadBenchTrace()

	b.Run("tier=fastpath-hit", func(b *testing.B) {
		// Warm a slow limiter with the whole trace, publish its state,
		// and keep only the packets the published map can decide: the
		// steady-state hit population (tracked flows' inbound replies).
		slow, err := New(offConfig(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		slow.SetFailClosed(true)
		for i := range pkts {
			slow.Process(pkts[i].pub)
		}
		om, err := slow.NewOffloadMap()
		if err != nil {
			b.Fatal(err)
		}
		if err := slow.PublishOffload(om); err != nil {
			b.Fatal(err)
		}
		fp, err := offload.NewFastPath(om)
		if err != nil {
			b.Fatal(err)
		}
		hot := make([]offPkt, 0, len(pkts))
		for i := range pkts {
			if fp.Probe(pkts[i].pair, pkts[i].dir) == offload.Hit {
				hot = append(hot, pkts[i])
			}
		}
		if len(hot) < len(pkts)/2 {
			b.Fatalf("hit population degenerate: %d of %d", len(hot), len(pkts))
		}

		ring := offload.NewMissRing[Packet](256)
		preEsc := fp.Escalations() // the prefilter pass's misses
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := range hot {
				if fp.Probe(hot[j].pair, hot[j].dir) != offload.Hit {
					// Unreachable by construction; the branch keeps the
					// loop shaped like the real split.
					ring.TryPush(hot[j].pub)
				}
			}
		}
		elapsed := time.Since(start)
		if esc := fp.Escalations() - preEsc; esc != 0 {
			b.Fatalf("hit tier escalated %d probes", esc)
		}
		b.ReportMetric(float64(len(hot))*float64(b.N)/elapsed.Seconds(), "packets/sec")
		b.ReportMetric(float64(len(hot)), "packets/op")
	})

	b.Run("tier=escalate-all", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		escalated := make([]Packet, 0, 8)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A cold split per iteration: live but empty map, fresh
			// slow path — every probe misses and rides the ring.
			slow, err := New(offConfig(time.Hour))
			if err != nil {
				b.Fatal(err)
			}
			slow.SetFailClosed(true)
			om, err := slow.NewOffloadMap()
			if err != nil {
				b.Fatal(err)
			}
			if err := slow.PublishOffload(om); err != nil {
				b.Fatal(err)
			}
			fp, err := offload.NewFastPath(om)
			if err != nil {
				b.Fatal(err)
			}
			ring := offload.NewMissRing[Packet](256)
			b.StartTimer()
			for j := range pkts {
				if fp.Probe(pkts[j].pair, pkts[j].dir) != offload.Hit {
					if !ring.TryPush(pkts[j].pub) {
						b.Fatal("ring overflow with per-packet drain")
					}
					escalated = ring.Drain(escalated[:0])
					for k := range escalated {
						slow.Process(escalated[k])
					}
				}
			}
			if fp.Hits() != 0 {
				b.Fatalf("cold map answered %d probes", fp.Hits())
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(len(pkts))*float64(b.N)/elapsed.Seconds(), "packets/sec")
		b.ReportMetric(float64(len(pkts)), "packets/op")
	})
}

// BenchmarkOffloadProbe isolates one flat-map probe — the per-packet
// cost a kernel-resident fast path would pay — over the hit
// population's pairs. Must stay at 0 allocs/op: the probe path is the
// whole point of the offload tier.
func BenchmarkOffloadProbe(b *testing.B) {
	pkts := offloadBenchTrace()
	slow, err := New(offConfig(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	slow.SetFailClosed(true)
	for i := range pkts {
		slow.Process(pkts[i].pub)
	}
	om, err := slow.NewOffloadMap()
	if err != nil {
		b.Fatal(err)
	}
	if err := slow.PublishOffload(om); err != nil {
		b.Fatal(err)
	}
	fp, err := offload.NewFastPath(om)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pkts[i%len(pkts)]
		fp.Probe(p.pair, p.dir)
	}
}

// publishBenchFlows is the number of fresh flows BenchmarkOffloadPublish
// marks between two publishes: about one offload-workload publish
// interval's worth of new flows.
const publishBenchFlows = 128

// BenchmarkOffloadPublish times Limiter.PublishOffload, the offload rung
// of the layer ladder. Between publishes it marks publishBenchFlows
// fresh outbound flows, untimed, so each timed publish exports exactly
// their marks. It runs at the paper's geometry (4×2^20 bits, classic)
// and at isp-large's (4×2^26 bits, blocked), where a publish that
// scanned whole vectors would read 32 MiB of filter per call. No
// rotation falls inside a run, so every timed publish is a steady-state
// one.
func BenchmarkOffloadPublish(b *testing.B) {
	for _, g := range []struct {
		name   string
		bits   uint
		layout Layout
	}{
		{"bits=20-classic", 20, LayoutClassic},
		{"bits=26-blocked", 26, LayoutBlocked},
	} {
		b.Run(g.name, func(b *testing.B) {
			lim, err := New(Config{
				ClientNetwork: "140.112.0.0/16",
				VectorBits:    g.bits,
				Layout:        g.layout,
				RotateEvery:   time.Hour,
				Seed:          11,
			})
			if err != nil {
				b.Fatal(err)
			}
			om, err := lim.NewOffloadMap()
			if err != nil {
				b.Fatal(err)
			}
			if err := lim.PublishOffload(om); err != nil {
				b.Fatal(err)
			}
			var flow uint32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < publishBenchFlows; j++ {
					u := flow * 0x9e3779b1
					lim.Process(Packet{
						Protocol: TCP,
						SrcAddr:  netip.AddrFrom4([4]byte{140, 112, byte(u >> 24), byte(u >> 16)}),
						SrcPort:  uint16(u) | 1024,
						DstAddr:  netip.AddrFrom4([4]byte{88, byte(flow >> 16), byte(flow >> 8), byte(flow)}),
						DstPort:  443,
						Size:     512,
					})
					flow++
				}
				b.StartTimer()
				if err := lim.PublishOffload(om); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
