package p2pbound

import (
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goldenStats is the exact end state of the golden trace below. The
// numbers are pinned on purpose: any change to verdict accounting, the
// P_d draw sequence, rotation cadence, or the anomaly/unroutable paths
// shows up here as a diff, not as silent drift.
var goldenStats = Stats{
	OutboundPackets:  3204,
	InboundPackets:   1794,
	InboundMatched:   1737,
	InboundUnmatched: 57,
	Dropped:          51,
	Rotations:        3,
	Unroutable:       1,
	TimeAnomalies:    1,
}

// goldenTrace is the fixed input: a seeded synthetic trace plus one
// unroutable packet and one beyond-tolerance clock regression appended,
// so every counter the telemetry layer exports is exercised.
func goldenTrace(t testing.TB) []Packet {
	pkts := publicTrace(t, 20*time.Second, 0.02, 11)
	last := pkts[len(pkts)-1].Timestamp
	pkts = append(pkts, Packet{
		Timestamp: last, Protocol: TCP,
		SrcAddr: netip.MustParseAddr("2001:db8::1"), SrcPort: 1,
		DstAddr: clientAddr, DstPort: 2, Size: 60,
	})
	pkts = append(pkts, outPkt(last-time.Second, 50000, 80, 1500))
	return pkts
}

func goldenConfig() Config {
	return Config{ClientNetwork: testNet, LowMbps: 0.1, HighMbps: 0.5, Seed: 3}
}

// TestGoldenMetricsLimiter replays the golden trace through a
// telemetry-attached Limiter and asserts the exact end-state counters
// twice: once through Stats, and once through the Prometheus exposition
// — so removing either the counter wiring or the telemetry export breaks
// the test.
func TestGoldenMetricsLimiter(t *testing.T) {
	pkts := goldenTrace(t)
	tel := NewTelemetry()
	cfg := goldenConfig()
	cfg.Telemetry = tel
	var traces int
	cfg.TraceEveryN = 10
	cfg.TraceFunc = func(DropTrace) { traces++ }
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Decision, 0, len(pkts))
	l.ProcessBatch(pkts, dst)

	if got := l.Stats(); got != goldenStats {
		t.Fatalf("golden stats drifted:\n got %+v\nwant %+v", got, goldenStats)
	}
	if want := int(goldenStats.Dropped) / 10; traces != want {
		t.Fatalf("sampled %d drop traces, want %d", traces, want)
	}

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`p2pbound_packets_total{dir="outbound",shard="0"} 3204`,
		`p2pbound_packets_total{dir="inbound",shard="0"} 1794`,
		`p2pbound_inbound_total{result="matched",shard="0"} 1737`,
		`p2pbound_inbound_total{result="unmatched",shard="0"} 57`,
		`p2pbound_dropped_total{shard="0"} 51`,
		`p2pbound_rotations_total{shard="0"} 3`,
		`p2pbound_unroutable_total{shard="0"} 1`,
		`p2pbound_time_anomalies_total{shard="0"} 1`,
		`p2pbound_drop_pd_count 51`,
		`p2pbound_batch_seconds_count 1`,
		`p2pbound_filter_info{hash_scheme="per-index",layout="classic",shard="0"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestGoldenMetricsPipeline drives a deterministic overload through a
// telemetry-attached front end: the workers are gated, every packet
// shares one socket pair and one subscriber (one shard), and the
// fail-closed ring has room for exactly ringSize packets — so accepted
// and shed counts are exact, not timing-dependent.
func TestGoldenMetricsPipeline(t *testing.T) {
	const ringSize = 4
	const total = 32
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			tel := NewTelemetry()
			cfg := goldenConfig()
			cfg.Telemetry = tel
			gate := make(chan struct{})
			p := fe.start(t, cfg, PipelineConfig{
				Shards:     2,
				RingSize:   ringSize,
				OnOverload: ShedFailClosed,
				testGate:   gate,
			})
			for i := 0; i < total; i++ {
				p.Submit(outPkt(time.Duration(i)*time.Millisecond, 40000, 80, 1500))
			}
			close(gate)
			p.Drain()
			p.Close()

			s := p.Stats()
			if s.ShedDropped != total-ringSize {
				t.Fatalf("ShedDropped = %d, want %d", s.ShedDropped, total-ringSize)
			}
			if s.ShedPassed != 0 {
				t.Fatalf("ShedPassed = %d, want 0", s.ShedPassed)
			}
			passed, dropped := p.Verdicts()
			if passed+dropped != ringSize {
				t.Fatalf("decided %d packets, want %d", passed+dropped, ringSize)
			}
			if s.OutboundPackets != ringSize {
				t.Fatalf("OutboundPackets = %d, want %d", s.OutboundPackets, ringSize)
			}

			var b strings.Builder
			if err := tel.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, line := range []string{
				`p2pbound_pipeline_verdicts_total{verdict="pass",pipeline="0"} 4`,
				`p2pbound_pipeline_verdicts_total{verdict="drop",pipeline="0"} 0`,
				`p2pbound_pipeline_shed_total{verdict="pass",pipeline="0"} 0`,
				`p2pbound_pipeline_shed_total{verdict="drop",pipeline="0"} 28`,
			} {
				if !strings.Contains(out, line+"\n") {
					t.Errorf("exposition missing %q\nfull exposition:\n%s", line, out)
				}
			}
		})
	}
}

// TestProcessAllocationFreeWithTelemetry re-pins the zero-allocation hot
// path with the full observability layer attached: telemetry counters,
// the drop-P_d histogram, batch latency, and sampled drop tracing must
// all record without a single heap allocation per packet.
func TestProcessAllocationFreeWithTelemetry(t *testing.T) {
	mk := func() *Limiter {
		tel := NewTelemetry()
		cfg := goldenConfig()
		cfg.Telemetry = tel
		cfg.TraceEveryN = 64
		var traced int64
		cfg.TraceFunc = func(DropTrace) { traced++ }
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	pkts := make([]Packet, 256)
	for i := range pkts {
		if i%2 == 0 {
			pkts[i] = outPkt(0, uint16(30000+i), 80, 1500)
		} else {
			pkts[i] = inPkt(0, 80, uint16(40000+i), 1500)
		}
	}

	l := mk()
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		l.Process(pkts[i%len(pkts)])
		i++
	}); avg != 0 {
		t.Fatalf("Process with telemetry allocates %.2f allocs/op, want 0", avg)
	}

	lb := mk()
	dst := make([]Decision, 0, len(pkts))
	if avg := testing.AllocsPerRun(100, func() {
		dst = lb.ProcessBatch(pkts, dst[:0])
	}); avg != 0 {
		t.Fatalf("ProcessBatch with telemetry allocates %.2f allocs/op, want 0", avg)
	}
}

// statsFields flattens a Stats for the monotonicity check.
func statsFields(s Stats) [10]int64 {
	return [10]int64{
		s.OutboundPackets, s.InboundPackets, s.InboundMatched,
		s.InboundUnmatched, s.Dropped, s.Rotations,
		s.Unroutable, s.TimeAnomalies, s.ShedPassed, s.ShedDropped,
	}
}

// TestStatsMonotonicUnderLoad is the torn-read regression test: while
// one goroutine processes packets, concurrent snapshots via Stats and
// concurrent Prometheus scrapes must observe every counter as
// monotonically non-decreasing. Before the counters were atomics, a
// snapshot could see a torn or stale value under -race.
func TestStatsMonotonicUnderLoad(t *testing.T) {
	pkts := goldenTrace(t)
	tel := NewTelemetry()
	cfg := goldenConfig()
	cfg.Telemetry = tel
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		prev := statsFields(l.Stats())
		for !done.Load() {
			cur := statsFields(l.Stats())
			for i := range cur {
				if cur[i] < prev[i] {
					t.Errorf("counter %d regressed: %d -> %d", i, prev[i], cur[i])
					return
				}
			}
			prev = cur
		}
	}()
	go func() {
		defer wg.Done()
		for !done.Load() {
			var b strings.Builder
			if err := tel.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	dst := make([]Decision, 0, 256)
	for rounds := 0; rounds < 20; rounds++ {
		base := time.Duration(rounds) * 21 * time.Second
		for start := 0; start < len(pkts); start += 256 {
			end := start + 256
			if end > len(pkts) {
				end = len(pkts)
			}
			chunk := make([]Packet, end-start)
			copy(chunk, pkts[start:end])
			for i := range chunk {
				chunk[i].Timestamp += base
			}
			dst = l.ProcessBatch(chunk, dst[:0])
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestDropTraceFields reads sampled drop traces field by field. Uplink
// load drives P_d to 1, so every unsolicited inbound packet is dropped,
// and with TraceEveryN 1 every drop is traced: Limiter.Process must
// trace exactly the dropped packets with their own socket pairs and
// timestamps — the last one regressed behind the clock, so it was
// decided at the clamped time but keeps its own timestamp — a P_d of 1,
// the measured uplink rate and epoch 0. Limiter.ProcessBatch and a
// one-shard Pipeline must report the same traces.
func TestDropTraceFields(t *testing.T) {
	remote := netip.MustParseAddr("9.9.9.9")
	var pkts, dropped []Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, outPkt(time.Duration(i)*time.Millisecond, uint16(1000+i), 80, 1500))
	}
	for i := 0; i < 10; i++ {
		dropped = append(dropped, Packet{
			Timestamp: 100*time.Millisecond + time.Duration(i)*time.Millisecond, Protocol: UDP,
			SrcAddr: remote, SrcPort: uint16(6881 + i), DstAddr: clientAddr, DstPort: 5000, Size: 200,
		})
	}
	dropped = append(dropped, Packet{
		Timestamp: 50 * time.Millisecond, Protocol: TCP,
		SrcAddr: remote, SrcPort: 7000, DstAddr: clientAddr, DstPort: 5001, Size: 300,
	})
	pkts = append(pkts, dropped...)

	// tracing returns a Config whose TraceFunc appends to *dst. A
	// Pipeline calls it from its shard worker, hence the lock.
	tracing := func(dst *[]DropTrace, mu *sync.Mutex) Config {
		return Config{
			ClientNetwork: testNet, LowMbps: 0.001, HighMbps: 0.002, Seed: 7,
			TraceEveryN: 1,
			TraceFunc: func(tr DropTrace) {
				mu.Lock()
				*dst = append(*dst, tr)
				mu.Unlock()
			},
		}
	}
	var mu sync.Mutex
	var seq, batch, piped []DropTrace
	l := newLimiter(t, tracing(&seq, &mu))
	drops := 0
	for _, p := range pkts {
		if l.Process(p) == Drop {
			drops++
		}
	}
	if drops != len(dropped) {
		t.Fatalf("Process dropped %d packets, want %d", drops, len(dropped))
	}
	if len(seq) != len(dropped) {
		t.Fatalf("Process traced %d drops, want %d", len(seq), len(dropped))
	}
	for i, tr := range seq {
		p := dropped[i]
		if tr.Timestamp != p.Timestamp || tr.Protocol != p.Protocol ||
			tr.SrcAddr != p.SrcAddr || tr.SrcPort != p.SrcPort ||
			tr.DstAddr != p.DstAddr || tr.DstPort != p.DstPort {
			t.Errorf("trace %d is %+v, want the socket pair and timestamp of %+v", i, tr, p)
		}
		if tr.Pd != 1 || tr.Epoch != 0 || tr.UplinkMbps < 0.002 {
			t.Errorf("trace %d: Pd %v, Epoch %d, UplinkMbps %v; want 1, 0 and at least 0.002", i, tr.Pd, tr.Epoch, tr.UplinkMbps)
		}
	}

	lb := newLimiter(t, tracing(&batch, &mu))
	lb.ProcessBatch(pkts, nil)
	pipe, err := NewPipeline(tracing(&piped, &mu), PipelineConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pipe.SubmitBatch(pkts)
	pipe.Close()
	for _, got := range []struct {
		name   string
		traces []DropTrace
	}{{"ProcessBatch", batch}, {"Pipeline", piped}} {
		if len(got.traces) != len(seq) {
			t.Errorf("%s traced %d drops, Process %d", got.name, len(got.traces), len(seq))
			continue
		}
		for i := range seq {
			if got.traces[i] != seq[i] {
				t.Errorf("%s trace %d is %+v, Process traced %+v", got.name, i, got.traces[i], seq[i])
			}
		}
	}
}
