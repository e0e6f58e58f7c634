// Benchmarks regenerating every table and figure of the paper (see the
// per-experiment index in DESIGN.md) plus the Section 5.2 performance
// claims: constant-time per-packet processing for the bitmap filter and
// O(N) rotation.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package p2pbound

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pbound/internal/analyzer"
	"p2pbound/internal/core"
	"p2pbound/internal/experiments"
	"p2pbound/internal/hashes"
	"p2pbound/internal/l7"
	"p2pbound/internal/naive"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/spi"
	"p2pbound/internal/trace"
)

// benchTrace lazily generates the shared benchmark workload: 60 simulated
// seconds at 5 % of the paper's load (≈40k packets).
var benchTrace = sync.OnceValue(func() *trace.Trace {
	tr, err := trace.Generate(trace.DefaultConfig(60*time.Second, 0.05, 77))
	if err != nil {
		panic(err)
	}
	return tr
})

func benchPair(i uint32) packet.SocketPair {
	return packet.SocketPair{
		Proto:   packet.TCP,
		SrcAddr: packet.AddrFrom4(140, 112, byte(i>>8), byte(i)),
		SrcPort: uint16(30000 + i%20000),
		DstAddr: packet.AddrFrom4(9, byte(i>>16), byte(i>>8), byte(i)),
		DstPort: uint16(10000 + i%30000),
	}
}

// --- Table 1: signature matching -------------------------------------

// BenchmarkTable1PatternMatch measures the Table 1 signature library over
// a representative payload mix (matching and non-matching).
func BenchmarkTable1PatternMatch(b *testing.B) {
	lib := l7.NewLibrary()
	payloads := [][]byte{
		append([]byte{0x13}, []byte("BitTorrent protocol.....................................")...),
		{0xe3, 0x29, 0, 0, 0, 0x01, 0xaa, 0xbb, 0xcc},
		[]byte("GNUTELLA CONNECT/0.6\r\nUser-Agent: LimeWire\r\n\r\n"),
		[]byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"),
		[]byte("220 ProFTPD 1.3.0 Server (FTP) ready.\r\n"),
		{0x7f, 0x11, 0x99, 0x42, 0x37, 0x5b, 0x02, 0x60, 0x12, 0x7d}, // opaque
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lib.MatchPayload(payloads[i%len(payloads)])
	}
}

// --- Table 2 + Figures 2-5: the traffic analyzer ----------------------

// BenchmarkTable2Analyzer measures the full Section 3.2 analyzer pipeline
// (connection tracking, identification, delay measurement) in packets/op.
func BenchmarkTable2Analyzer(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := analyzer.New(analyzer.DefaultConfig(tr.Config.ClientNet))
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Packets {
			a.Feed(&tr.Packets[j])
		}
		a.FinalizePortIdent()
	}
	b.ReportMetric(float64(len(tr.Packets)), "packets/op")
}

// BenchmarkFig2to5Report measures building the Table 2 / Figure 2–5
// report from an analyzed trace.
func BenchmarkFig2to5Report(b *testing.B) {
	tr := benchTrace()
	a, err := analyzer.New(analyzer.DefaultConfig(tr.Config.ClientNet))
	if err != nil {
		b.Fatal(err)
	}
	for j := range tr.Packets {
		a.Feed(&tr.Packets[j])
	}
	a.FinalizePortIdent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.BuildReport()
	}
}

// --- Section 5.1 analysis (A1) ----------------------------------------

// BenchmarkA1Analysis measures the closed-form capacity bounds plus the
// Monte-Carlo cross-check.
func BenchmarkA1Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 5.2 performance (P1) --------------------------------------

// BenchmarkOutboundMark measures processing one outbound packet: m hashes
// plus marking m bits in all k vectors — O(m·t_h) + O(m·k·t_m).
func BenchmarkOutboundMark(b *testing.B) {
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = packet.Packet{Pair: benchPair(uint32(i)), Dir: packet.Outbound, Len: 1500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(&pkts[i%len(pkts)], 1)
	}
}

// BenchmarkInboundHit measures an inbound packet matching tracked state:
// m hashes plus m bit checks in the current vector — O(m·t_h) + O(m·t_c).
func BenchmarkInboundHit(b *testing.B) {
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 1024)
	for i := range pkts {
		pair := benchPair(uint32(i))
		f.Mark(pair)
		pkts[i] = packet.Packet{Pair: pair.Inverse(), Dir: packet.Inbound, Len: 1500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(&pkts[i%len(pkts)], 0)
	}
}

// BenchmarkInboundMiss measures an unmatched inbound packet with P_d = 1
// (drop path).
func BenchmarkInboundMiss(b *testing.B) {
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = packet.Packet{Pair: benchPair(uint32(i)).Inverse(), Dir: packet.Inbound, Len: 1500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(&pkts[i%len(pkts)], 1)
	}
}

// BenchmarkRotate measures b.rotate for the paper's 2^20-bit vectors: the
// only non-constant operation, O(N) but a single contiguous memory clear.
func BenchmarkRotate(b *testing.B) {
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Rotate()
	}
}

// BenchmarkSPIProcess is the baseline comparison: exact per-flow state
// with hash-table lookups (the O(n)-storage alternative).
func BenchmarkSPIProcess(b *testing.B) {
	f, err := spi.New(spi.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 2048)
	for i := range pkts {
		pair := benchPair(uint32(i / 2))
		if i%2 == 0 {
			pkts[i] = packet.Packet{Pair: pair, Dir: packet.Outbound, Len: 1500}
		} else {
			pkts[i] = packet.Packet{Pair: pair.Inverse(), Dir: packet.Inbound, Len: 1500}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(&pkts[i%len(pkts)], 1)
	}
}

// BenchmarkNaiveProcess is the exact timer-table reference of Section 4.2.
func BenchmarkNaiveProcess(b *testing.B) {
	f, err := naive.New(20*time.Second, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 2048)
	for i := range pkts {
		pair := benchPair(uint32(i / 2))
		if i%2 == 0 {
			pkts[i] = packet.Packet{Pair: pair, Dir: packet.Outbound, Len: 1500}
		} else {
			pkts[i] = packet.Packet{Pair: pair.Inverse(), Dir: packet.Inbound, Len: 1500}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(&pkts[i%len(pkts)], 1)
	}
}

// --- Figures 8 and 9: the Section 5.3 simulations ----------------------

// BenchmarkFig8Replay measures the full SPI-vs-bitmap drop-rate
// comparison.
func BenchmarkFig8Replay(b *testing.B) {
	tr := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunF8(tr.Packets, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Packets)), "packets/op")
}

// BenchmarkFig9Replay measures the throughput-limiting simulation with
// blocked-connection memory.
func BenchmarkFig9Replay(b *testing.B) {
	tr := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunF9(tr.Packets, 2.5e6, 5e6, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Packets)), "packets/op")
}

// --- Substrates ---------------------------------------------------------

// BenchmarkTraceGenerate measures the synthetic workload generator.
func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.DefaultConfig(10*time.Second, 0.05, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPcapWrite measures tcpdump-format serialization with checksums.
func BenchmarkPcapWrite(b *testing.B) {
	tr := benchTrace()
	base := time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := discardWriter{}
		pw, err := pcap.NewWriter(w, 0, base)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Packets {
			if err := pw.WritePacket(&tr.Packets[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(tr.Packets)), "packets/op")
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// --- The public API ------------------------------------------------------

// BenchmarkLimiterProcess measures the end-to-end public Limiter path:
// address conversion, throughput metering, P_d computation, and the
// bitmap filter.
func BenchmarkLimiterProcess(b *testing.B) {
	l, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		b.Fatal(err)
	}
	client := netip.MustParseAddr("140.112.1.2")
	remote := netip.MustParseAddr("8.8.8.8")
	pkts := make([]Packet, 1024)
	for i := range pkts {
		if i%2 == 0 {
			pkts[i] = Packet{
				Protocol: TCP,
				SrcAddr:  client, SrcPort: uint16(30000 + i),
				DstAddr: remote, DstPort: 80,
				Size: 1500,
			}
		} else {
			pkts[i] = Packet{
				Protocol: TCP,
				SrcAddr:  remote, SrcPort: 80,
				DstAddr: client, DstPort: uint16(30000 + i - 1),
				Size: 1500,
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Process(pkts[i%len(pkts)])
	}
}

// benchPublicTrace converts the shared benchmark workload to public
// Packets once.
var benchPublicTrace = sync.OnceValue(func() []Packet {
	return toPublic(benchTrace().Packets)
})

// BenchmarkHotPath replays the shared 60 s bench trace through the
// public Limiter one packet at a time — the end-to-end per-packet cost
// of the zero-allocation hot path, and the sequential baseline the
// pipeline speedup is measured against. CI runs this as its smoke
// benchmark.
func BenchmarkHotPath(b *testing.B) {
	pkts := benchPublicTrace()
	l, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Process(pkts[i%len(pkts)])
	}
}

// BenchmarkIndexerDerive is the hash layer by itself: core.Indexer
// deriving the indexes of one BatchChunk of packets per op, alternating
// outbound and inbound, at the paper's geometry (m=3 over 2^20 bits).
// The sub-benchmarks are the classic layout's per-index FNV-1a family
// over the full and the hole-punch key, and the blocked layout's
// one-shot hash.
func BenchmarkIndexerDerive(b *testing.B) {
	run := func(cfg core.Config) func(*testing.B) {
		return func(b *testing.B) {
			ix, err := core.NewIndexer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pkts := make([]packet.Packet, 1<<12)
			for i := range pkts {
				pair := benchPair(uint32(i / 2))
				if i%2 == 0 {
					pkts[i] = packet.Packet{Pair: pair, Dir: packet.Outbound}
				} else {
					pkts[i] = packet.Packet{Pair: pair.Inverse(), Dir: packet.Inbound}
				}
			}
			sums := make([]uint32, core.BatchChunk*cfg.M)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * core.BatchChunk % len(pkts)
				ix.Derive(sums, pkts[lo:lo+core.BatchChunk])
			}
		}
	}
	classic := core.DefaultConfig()
	holePunch := classic
	holePunch.HolePunch = true
	blocked := classic
	blocked.Layout = hashes.LayoutBlocked
	b.Run("classic", run(classic))
	b.Run("classic-holepunch", run(holePunch))
	b.Run("blocked", run(blocked))
}

// BenchmarkFilterProcessBatch is the acceptance benchmark of the
// cache-line-blocked layout: the core filter's two-pass batch path at a
// production table size (k=3 vectors of 2^24 bits = 6 MiB, far beyond
// L2), m=4, alternating outbound marks and inbound hits in 256-packet
// batches with P_d = 0. The sub-benchmarks compare the two layouts:
// classic, with the paper's per-index hashing, and blocked, with the
// one-shot hash and all m bits in one cache line per vector.
func BenchmarkFilterProcessBatch(b *testing.B) {
	run := func(layout hashes.Layout) func(*testing.B) {
		return func(b *testing.B) {
			f, err := core.New(core.Config{
				K: 3, NBits: 24, M: 4, DeltaT: time.Hour, Layout: layout,
			})
			if err != nil {
				b.Fatal(err)
			}
			f.Advance(0)
			const chunk = 256
			pkts := make([]packet.Packet, 1<<16)
			for i := range pkts {
				pair := benchPair(uint32(i / 2))
				if i%2 == 0 {
					pkts[i] = packet.Packet{Pair: pair, Dir: packet.Outbound, Len: 1500}
				} else {
					pkts[i] = packet.Packet{Pair: pair.Inverse(), Dir: packet.Inbound, Len: 1500}
				}
			}
			dst := make([]core.Verdict, 0, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for n < b.N {
				lo := n % len(pkts)
				hi := lo + chunk
				if hi > len(pkts) {
					hi = len(pkts)
				}
				dst = f.ProcessBatch(pkts[lo:hi], 0, dst[:0])
				n += hi - lo
			}
		}
	}
	b.Run("layout=classic/scheme=perindex", run(hashes.LayoutClassic))
	b.Run("layout=blocked", run(hashes.LayoutBlocked))
}

// BenchmarkLimiterProcessBatch measures the batch form of the hot path
// over the same trace in fixed-size chunks.
func BenchmarkLimiterProcessBatch(b *testing.B) {
	pkts := benchPublicTrace()
	l, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 256
	dst := make([]Decision, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		lo := n % len(pkts)
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		dst = l.ProcessBatch(pkts[lo:hi], dst[:0])
		n += hi - lo
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	}
}

// BenchmarkLimiterProcessBatchTelemetry is BenchmarkLimiterProcessBatch
// with the full observability layer attached (telemetry registry, drop
// P_d histogram, batch latency, sampled tracing). Compare the two to
// measure the observability overhead; the acceptance budget is <= 5%.
func BenchmarkLimiterProcessBatchTelemetry(b *testing.B) {
	pkts := benchPublicTrace()
	var traced int64
	l, err := New(Config{
		ClientNetwork: "140.112.0.0/16",
		Telemetry:     NewTelemetry(),
		TraceEveryN:   1024,
		TraceFunc:     func(DropTrace) { traced++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 256
	dst := make([]Decision, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		lo := n % len(pkts)
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		dst = l.ProcessBatch(pkts[lo:hi], dst[:0])
		n += hi - lo
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	}
}

// BenchmarkPipeline replays the shared 60 s bench trace through the
// 4-shard concurrent Pipeline (SubmitBatch + Drain per iteration). One
// op is one full-trace replay. The setup replays the same trace through
// the same sharded limiter sequentially, both to cross-check that the
// pipeline's verdict counts are identical and to time the
// single-goroutine baseline; the measured ratio is reported as
// "x-vs-sequential" alongside "cores" (GOMAXPROCS). The pipeline buys
// throughput with parallelism, so the ratio scales with cores, but here
// the default geometry keeps the table in cache and the filter's work
// per packet is small next to routing and ring hand-off. On a 2-vCPU
// Intel Xeon (Go 1.24) the 4 workers and the producer share two cores
// and the ratio reads 0.81–1.05 over three 20-iteration runs; the
// single timed sequential pass makes it noisy. The two-shard scaling
// figure is p2pbench's sharded workload against isp-large, which do the
// same filter work on two workers and on one thread.
func BenchmarkPipeline(b *testing.B) {
	pkts := benchPublicTrace()
	cfg := Config{ClientNetwork: "140.112.0.0/16"}
	const shards = 4

	seq, err := NewSharded(cfg, shards)
	if err != nil {
		b.Fatal(err)
	}
	seqStart := time.Now()
	var seqPassed, seqDropped int64
	for i := range pkts {
		if seq.Process(pkts[i]) == Pass {
			seqPassed++
		} else {
			seqDropped++
		}
	}
	seqSecs := time.Since(seqStart).Seconds()

	pipe, err := NewPipeline(cfg, PipelineConfig{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer pipe.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.SubmitBatch(pkts)
		pipe.Drain()
		if i == 0 {
			passed, dropped := pipe.Verdicts()
			if passed != seqPassed || dropped != seqDropped {
				b.Fatalf("pipeline verdicts pass=%d drop=%d, sequential pass=%d drop=%d",
					passed, dropped, seqPassed, seqDropped)
			}
		}
	}
	b.StopTimer()
	pipeRate := float64(b.N) * float64(len(pkts)) / b.Elapsed().Seconds()
	b.ReportMetric(float64(len(pkts)), "packets/op")
	b.ReportMetric(pipeRate, "packets/sec")
	if seqSecs > 0 {
		seqRate := float64(len(pkts)) / seqSecs
		b.ReportMetric(pipeRate/seqRate, "x-vs-sequential")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// BenchmarkShardedLimiterParallel drives the sharded limiter with one
// goroutine per shard — the multi-queue deployment shape.
func BenchmarkShardedLimiterParallel(b *testing.B) {
	const shards = 4
	s, err := NewSharded(Config{ClientNetwork: "140.112.0.0/16"}, shards)
	if err != nil {
		b.Fatal(err)
	}
	client := netip.MustParseAddr("140.112.1.2")
	perShard := make([][]Packet, shards)
	for i := 0; i < 8192; i++ {
		p := Packet{
			Protocol: TCP,
			SrcAddr:  client, SrcPort: uint16(20000 + i%40000),
			DstAddr: netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstPort: 80,
			Size:    1500,
		}
		sh := s.ShardOf(p)
		perShard[sh] = append(perShard[sh], p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		sh := int(next.Add(1)-1) % shards
		i := 0
		for pb.Next() {
			pkts := perShard[sh]
			s.ProcessOnShard(sh, pkts[i%len(pkts)])
			i++
		}
	})
}
