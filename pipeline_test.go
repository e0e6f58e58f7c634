package p2pbound

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"p2pbound/internal/packet"
	"p2pbound/internal/trace"
)

// publicTrace renders a seeded synthetic trace as public Packets.
func publicTrace(t testing.TB, dur time.Duration, scale float64, seed uint64) []Packet {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig(dur, scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	return toPublic(tr.Packets)
}

func toPublic(pkts []packet.Packet) []Packet {
	out := make([]Packet, len(pkts))
	for i := range pkts {
		p := &pkts[i]
		out[i] = Packet{
			Timestamp: p.TS,
			Protocol:  Protocol(p.Pair.Proto),
			SrcAddr:   addrToNetip(p.Pair.SrcAddr), SrcPort: p.Pair.SrcPort,
			DstAddr: addrToNetip(p.Pair.DstAddr), DstPort: p.Pair.DstPort,
			Size: p.Len,
		}
	}
	return out
}

const testNet = "140.112.0.0/16"

// TestBatchMatchesSequential pins Limiter.ProcessBatch to Process: same
// seeded trace, same config, chunked batches — every verdict and every
// counter must agree exactly.
func TestBatchMatchesSequential(t *testing.T) {
	pkts := publicTrace(t, 20*time.Second, 0.02, 11)
	cfg := Config{ClientNetwork: testNet, LowMbps: 0.1, HighMbps: 0.5, Seed: 3}

	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := make([]Decision, 0, len(pkts))
	for i := range pkts {
		want = append(want, seq.Process(pkts[i]))
	}

	got := make([]Decision, 0, len(pkts))
	for lo := 0; lo < len(pkts); lo += 193 { // deliberately odd chunking
		hi := lo + 193
		if hi > len(pkts) {
			hi = len(pkts)
		}
		got = bat.ProcessBatch(pkts[lo:hi], got)
	}

	if len(got) != len(want) {
		t.Fatalf("verdict count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: batch %v, sequential %v", i, got[i], want[i])
		}
	}
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverged:\nsequential %+v\nbatch      %+v", seq.Stats(), bat.Stats())
	}
}

// TestPipelineMatchesSequentialSharded is the pipeline's differential
// anchor: replaying the same seeded trace through a sequential
// ShardedLimiter and through the concurrent Pipeline (same config, same
// shard count) must produce identical aggregate stats and verdict
// counts — concurrency must change scheduling, never decisions.
func TestPipelineMatchesSequentialSharded(t *testing.T) {
	pkts := publicTrace(t, 20*time.Second, 0.02, 29)
	cfg := Config{ClientNetwork: testNet, LowMbps: 0.05, HighMbps: 0.2, Seed: 9}
	const shards = 4

	seq, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var seqPassed, seqDropped int64
	for i := range pkts {
		if seq.Process(pkts[i]) == Pass {
			seqPassed++
		} else {
			seqDropped++
		}
	}

	pipe, err := NewPipeline(cfg, PipelineConfig{Shards: shards, RingSize: 512, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	pipe.SubmitBatch(pkts)
	pipe.Drain()
	passed, dropped := pipe.Verdicts()
	pipe.Close()

	if passed != seqPassed || dropped != seqDropped {
		t.Fatalf("verdict counts diverged: pipeline pass=%d drop=%d, sequential pass=%d drop=%d",
			passed, dropped, seqPassed, seqDropped)
	}
	if got, want := pipe.Stats(), seq.Stats(); got != want {
		t.Fatalf("stats diverged:\npipeline   %+v\nsequential %+v", got, want)
	}
}

// TestPipelineMatchesSingleLimiterAllHit compares the Pipeline against a
// single sequential Limiter on a trace where every inbound packet is the
// prompt reply to an outbound one. Bloom filters have no false
// negatives, so every inbound packet is a hit in both systems regardless
// of shard partitioning, and the verdicts and match counts must agree
// exactly. (On general traffic the sharded meters partition the RED
// thresholds, so single-vs-sharded is an approximation by design; see
// ShardedLimiter.)
func TestPipelineMatchesSingleLimiterAllHit(t *testing.T) {
	client := netip.MustParseAddr("140.112.3.4")
	var pkts []Packet
	ts := time.Duration(0)
	for i := 0; i < 5000; i++ {
		remote := netip.AddrFrom4([4]byte{9, 8, byte(i >> 8), byte(i)})
		sport := uint16(20000 + i%30000)
		out := Packet{
			Timestamp: ts,
			Protocol:  TCP,
			SrcAddr:   client, SrcPort: sport,
			DstAddr: remote, DstPort: 443,
			Size: 1400,
		}
		in := Packet{
			Timestamp: ts + time.Millisecond,
			Protocol:  TCP,
			SrcAddr:   remote, SrcPort: 443,
			DstAddr: client, DstPort: sport,
			Size: 1400,
		}
		pkts = append(pkts, out, in)
		ts += 3 * time.Millisecond
	}

	cfg := Config{ClientNetwork: testNet, LowMbps: 0.001, HighMbps: 0.002, Seed: 5}
	single, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var passed, dropped int64
	for i := range pkts {
		if single.Process(pkts[i]) == Pass {
			passed++
		} else {
			dropped++
		}
	}

	pipe, err := NewPipeline(cfg, PipelineConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pipe.SubmitBatch(pkts)
	pipe.Close()
	pPassed, pDropped := pipe.Verdicts()

	if pPassed != passed || pDropped != dropped {
		t.Fatalf("verdicts diverged: pipeline pass=%d drop=%d, single pass=%d drop=%d",
			pPassed, pDropped, passed, dropped)
	}
	ss, ps := single.Stats(), pipe.Stats()
	if ps.OutboundPackets != ss.OutboundPackets ||
		ps.InboundPackets != ss.InboundPackets ||
		ps.InboundMatched != ss.InboundMatched ||
		ps.Dropped != ss.Dropped {
		t.Fatalf("packet counters diverged:\npipeline %+v\nsingle   %+v", ps, ss)
	}
	if ss.InboundMatched != ss.InboundPackets {
		t.Fatalf("all-hit trace had misses: %+v", ss)
	}
}

// TestPipelineConcurrentProducers exercises the producer mutex and ring
// backpressure under -race: several goroutines submitting concurrently,
// with a ring small enough to force producer blocking, must neither race
// nor lose packets.
func TestPipelineConcurrentProducers(t *testing.T) {
	cfg := Config{ClientNetwork: testNet, Seed: 1}
	pipe, err := NewPipeline(cfg, PipelineConfig{Shards: 3, RingSize: 64, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 5000
	var wg sync.WaitGroup
	wg.Add(producers)
	for g := 0; g < producers; g++ {
		go func(g int) {
			defer wg.Done()
			client := netip.AddrFrom4([4]byte{140, 112, byte(g), 1})
			for i := 0; i < perProducer; i++ {
				pipe.Submit(Packet{
					Timestamp: time.Duration(i) * time.Millisecond,
					Protocol:  UDP,
					SrcAddr:   client, SrcPort: uint16(1000 + i%60000),
					DstAddr: netip.AddrFrom4([4]byte{9, byte(g), byte(i >> 8), byte(i)}),
					DstPort: 6881,
					Size:    512,
				})
			}
		}(g)
	}
	wg.Wait()
	pipe.Close()
	passed, dropped := pipe.Verdicts()
	if passed+dropped != producers*perProducer {
		t.Fatalf("decided %d packets, want %d", passed+dropped, producers*perProducer)
	}
	s := pipe.Stats()
	if s.OutboundPackets+s.InboundPackets != producers*perProducer {
		t.Fatalf("stats lost packets: %+v", s)
	}
}

// TestPipelineRouteMatchesShardOf pins the Pipeline's routing to
// ShardedLimiter.ShardOf, packet by packet, through each submit call:
// with the workers held, ring i must hold exactly the records of the
// packets ShardOf sends to shard i, in submission order.
func TestPipelineRouteMatchesShardOf(t *testing.T) {
	const shards = 4
	pkts := goldenShardPkts()
	cfg := Config{ClientNetwork: testNet}
	s, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]record, shards)
	for i := range pkts {
		var r record
		r.fromPublic(&pkts[i])
		sh := s.ShardOf(pkts[i])
		want[sh] = append(want[sh], r)
	}
	for _, tc := range []struct {
		name   string
		submit func(p *Pipeline)
	}{
		{"Submit", func(p *Pipeline) {
			for _, pkt := range pkts {
				p.Submit(pkt)
			}
		}},
		{"TrySubmit", func(p *Pipeline) {
			for _, pkt := range pkts {
				if !p.TrySubmit(pkt) {
					t.Fatal("TrySubmit refused a packet with room in its ring")
				}
			}
		}},
		{"SubmitBatch", func(p *Pipeline) { p.SubmitBatch(pkts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			pipe, err := NewPipeline(cfg, PipelineConfig{Shards: shards, RingSize: 2 * len(pkts), testGate: gate})
			if err != nil {
				t.Fatal(err)
			}
			tc.submit(pipe)
			for sh, r := range pipe.rings {
				got := r.buf[:r.tail.Load()]
				if len(got) != len(want[sh]) {
					t.Errorf("ring %d holds %d packets, ShardOf sends %d there", sh, len(got), len(want[sh]))
					continue
				}
				for i := range got {
					if got[i] != want[sh][i] {
						t.Errorf("ring %d slot %d holds %+v, want %+v", sh, i, got[i], want[sh][i])
					}
				}
			}
			close(gate)
			pipe.Close()
			checkDecided(t, pipe, int64(len(pkts)))
		})
	}
}

// TestPipelineUnroutable sends packets with a non-IPv4 address — IPv6,
// IPv4-mapped IPv6, or the zero Addr, on either side — through every
// submit call of both front ends: each must be counted unroutable
// exactly once and dropped, never panic the router.
func TestPipelineUnroutable(t *testing.T) {
	cfg := Config{ClientNetwork: testNet, Seed: 1}
	client := netip.MustParseAddr("140.112.0.9")
	submits := []struct {
		name   string
		submit func(t *testing.T, fe frontEnd, pkts []Packet)
	}{
		{"Submit", func(t *testing.T, fe frontEnd, pkts []Packet) {
			for _, p := range pkts {
				fe.Submit(p)
			}
		}},
		{"TrySubmit", func(t *testing.T, fe frontEnd, pkts []Packet) {
			for _, p := range pkts {
				if !fe.TrySubmit(p) {
					t.Fatal("TrySubmit refused a packet with room in its ring")
				}
			}
		}},
		{"SubmitBatch", func(t *testing.T, fe frontEnd, pkts []Packet) { fe.SubmitBatch(pkts) }},
	}
	addrs := []struct {
		name string
		addr netip.Addr
	}{
		{"ipv6", netip.MustParseAddr("2001:db8::1")},
		{"ipv4-mapped", netip.MustParseAddr("::ffff:8.8.8.8")},
		{"zero", netip.Addr{}},
	}
	for _, fe := range frontEnds {
		for _, sub := range submits {
			for _, a := range addrs {
				t.Run(fe.name+"/"+sub.name+"/"+a.name, func(t *testing.T) {
					pipe := fe.start(t, cfg, PipelineConfig{Shards: 2})
					pkts := []Packet{
						{Protocol: TCP, SrcAddr: a.addr, SrcPort: 1, DstAddr: client, DstPort: 2, Size: 100},
						{Timestamp: time.Millisecond, Protocol: UDP, SrcAddr: client, SrcPort: 3, DstAddr: a.addr, DstPort: 4, Size: 100},
					}
					sub.submit(t, pipe, pkts)
					pipe.Close()
					if got := unroutableOf(pipe); got != int64(len(pkts)) {
						t.Fatalf("Unroutable = %d, want %d", got, len(pkts))
					}
					if passed, dropped := pipe.Verdicts(); passed != 0 || dropped != int64(len(pkts)) {
						t.Fatalf("passed %d, dropped %d; want 0 and %d", passed, dropped, len(pkts))
					}
				})
			}
		}
	}
}

// unroutableOf returns the Unroutable count of a front end: a
// Pipeline's limiters count them, a TenantPipeline's manager does.
func unroutableOf(fe frontEnd) int64 {
	if f, ok := fe.(tenantFrontEnd); ok {
		return f.m.Stats().Unroutable
	}
	return fe.Stats().Unroutable
}

// TestPipelineCloseIdempotent double-Close and post-Close Stats.
func TestPipelineCloseIdempotent(t *testing.T) {
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			pipe := fe.start(t, Config{ClientNetwork: testNet}, PipelineConfig{Shards: 2})
			pipe.Close()
			pipe.Close()
			if s := pipe.Stats(); s != (Stats{}) {
				t.Fatalf("fresh pipeline has stats %+v", s)
			}
		})
	}
}

// frontEnd is the method set the executor gives both Pipeline and
// TenantPipeline, plus Stats.
type frontEnd interface {
	Submit(Packet)
	TrySubmit(Packet) bool
	SubmitBatch([]Packet)
	Drain()
	Close()
	Verdicts() (passed, dropped int64)
	Shed() (passed, dropped int64)
	Stats() Stats
}

// frontEnds starts each executor front end from one Config and
// PipelineConfig, so the executor tests run over both. The
// TenantPipeline variant registers cfg.ClientNetwork (a /16) as its
// only subscriber on a manager with pcfg.Shards shards.
var frontEnds = []struct {
	name  string
	start func(t *testing.T, cfg Config, pcfg PipelineConfig) frontEnd
}{
	{"Pipeline", func(t *testing.T, cfg Config, pcfg PipelineConfig) frontEnd {
		p, err := NewPipeline(cfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}},
	{"TenantPipeline", func(t *testing.T, cfg Config, pcfg PipelineConfig) frontEnd {
		m, err := NewTenantManager(TenantManagerConfig{
			Tenant: cfg, PrefixBits: 16, Shards: pcfg.Shards, Telemetry: cfg.Telemetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddTenant(TenantConfig{Network: cfg.ClientNetwork}); err != nil {
			t.Fatal(err)
		}
		return tenantFrontEnd{NewTenantPipeline(m, TenantPipelineConfig{
			RingSize: pcfg.RingSize, BatchSize: pcfg.BatchSize,
			OnOverload: pcfg.OnOverload, testGate: pcfg.testGate,
		}), m}
	}},
}

// tenantFrontEnd adds Pipeline-shaped Stats to a TenantPipeline: its
// only tenant's counters plus its shed counts.
type tenantFrontEnd struct {
	*TenantPipeline
	m *TenantManager
}

func (f tenantFrontEnd) Stats() Stats {
	s, _ := f.m.TenantStats(f.m.TenantIDs()[0])
	s.ShedPassed, s.ShedDropped = f.Shed()
	return s
}
