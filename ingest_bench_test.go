// BenchmarkIngestEndToEnd measures the ingestion tier: bytes of a pcap
// capture in, filter verdicts out, reported as packets/sec. Three
// sub-benchmarks replay the same capture through the same bitmap
// filter; only the ingestion path differs:
//
//	source=readall+process  — the pre-batching path: pcap.ReadAll
//	                          materializes the whole trace (one payload
//	                          allocation per packet), then netsim.Replay
//	                          walks the slice.
//	source=mmap+batch       — the record walker decodes frames in place
//	                          out of the capture's bytes (a mapped file
//	                          in production) and hands batches to
//	                          netsim.ReplayIngest; zero per-packet
//	                          allocations, constant memory.
//	source=stream+batch     — the same walker over a window refilled
//	                          from an io.Reader (stdin, FIFOs), with
//	                          batch delivery and reused packet storage.
package p2pbound

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/ingest"
	"p2pbound/internal/netsim"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
)

var ingestBenchNet = packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)

// ingestBenchCapture renders the shared benchmark trace (see benchTrace)
// to pcap bytes once: ≈40k packets, a few MB of capture.
var ingestBenchCapture = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	base := time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)
	if err := pcap.WriteAll(&buf, benchTrace().Packets, 0, base); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

func ingestBenchFilter(b *testing.B) *core.Filter {
	b.Helper()
	f, err := core.New(core.Config{K: 4, NBits: 20, M: 3, DeltaT: time.Second, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// replayMetrics reports throughput and cross-checks the verdict counts
// against the readall reference so a faster path that decodes or
// classifies differently fails instead of "winning".
func replayMetrics(b *testing.B, res *netsim.Result, wantDropped int64, elapsed time.Duration) {
	b.Helper()
	if res.TotalPackets == 0 {
		b.Fatal("replay produced no packets")
	}
	if res.FilterDropped != wantDropped {
		b.Fatalf("verdicts diverged: dropped %d, reference %d", res.FilterDropped, wantDropped)
	}
	pps := float64(res.TotalPackets) * float64(b.N) / elapsed.Seconds()
	b.ReportMetric(pps, "packets/sec")
	b.ReportMetric(float64(res.TotalPackets), "packets/op")
}

// ingestRefDropped computes the reference verdict count once, via the
// slice path every sub-benchmark is compared against.
var ingestRefDropped = sync.OnceValue(func() int64 {
	pkts, err := pcap.ReadAll(bytes.NewReader(ingestBenchCapture()), ingestBenchNet, false)
	if err != nil {
		panic(err)
	}
	f, err := core.New(core.Config{K: 4, NBits: 20, M: 3, DeltaT: time.Second, Seed: 7})
	if err != nil {
		panic(err)
	}
	res, err := netsim.Replay(pkts, f, netsim.Config{})
	if err != nil {
		panic(err)
	}
	return res.FilterDropped
})

func BenchmarkIngestEndToEnd(b *testing.B) {
	data := ingestBenchCapture()
	want := ingestRefDropped()

	b.Run("source=readall+process", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var res *netsim.Result
		start := time.Now()
		for i := 0; i < b.N; i++ {
			pkts, err := pcap.ReadAll(bytes.NewReader(data), ingestBenchNet, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err = netsim.Replay(pkts, ingestBenchFilter(b), netsim.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		replayMetrics(b, res, want, time.Since(start))
	})

	b.Run("source=mmap+batch", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var res *netsim.Result
		start := time.Now()
		for i := 0; i < b.N; i++ {
			src, err := ingest.NewMemSource(data, ingestBenchNet, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err = netsim.ReplayIngest(src, ingestBenchFilter(b), netsim.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		replayMetrics(b, res, want, time.Since(start))
	})

	b.Run("source=stream+batch", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var res *netsim.Result
		start := time.Now()
		for i := 0; i < b.N; i++ {
			src, err := ingest.NewStreamSource(bytes.NewReader(data), ingestBenchNet, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err = netsim.ReplayIngest(src, ingestBenchFilter(b), netsim.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		replayMetrics(b, res, want, time.Since(start))
	})
}
