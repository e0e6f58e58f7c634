package p2pbound

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pbound/internal/faultinject"
	"p2pbound/internal/netsim"
)

// chaosTrace builds a deterministic bidirectional trace: client hosts
// inside 140.112.0.0/16 talk to remote servers, with a tail of inbound
// packets that match no outbound flow (the P2P-request shape the filter
// exists to throttle).
func chaosTrace(n int, seed uint64) []Packet {
	pkts := make([]Packet, 0, n)
	for i := 0; i < n; i++ {
		ts := time.Duration(i) * 2 * time.Millisecond
		flow := uint32(seed)*2654435761 + uint32(i/4)
		client := netip.AddrFrom4([4]byte{140, 112, byte(flow >> 8), byte(flow)})
		remote := netip.AddrFrom4([4]byte{8, byte(flow >> 16), byte(flow >> 8), byte(flow)})
		switch i % 4 {
		case 0, 1: // outbound request
			pkts = append(pkts, Packet{
				Timestamp: ts, Protocol: TCP,
				SrcAddr: client, SrcPort: uint16(20000 + flow%20000),
				DstAddr: remote, DstPort: 80, Size: 120,
			})
		case 2: // matching inbound response
			pkts = append(pkts, Packet{
				Timestamp: ts, Protocol: TCP,
				SrcAddr: remote, SrcPort: 80,
				DstAddr: client, DstPort: uint16(20000 + flow%20000), Size: 1400,
			})
		default: // unmatched inbound (P2P-style request)
			pkts = append(pkts, Packet{
				Timestamp: ts, Protocol: TCP,
				SrcAddr: remote, SrcPort: 6881,
				DstAddr: client, DstPort: uint16(40000 + flow%20000), Size: 300,
			})
		}
	}
	return pkts
}

// checkStats asserts the limiter accounting invariants that must hold no
// matter what the trace looked like.
func checkStats(t *testing.T, s Stats, processed int) {
	t.Helper()
	if s.InboundMatched+s.InboundUnmatched != s.InboundPackets {
		t.Fatalf("inbound invariant broken: %d + %d != %d",
			s.InboundMatched, s.InboundUnmatched, s.InboundPackets)
	}
	if got := s.OutboundPackets + s.InboundPackets + s.Unroutable; got != int64(processed) {
		t.Fatalf("packet accounting broken: %d classified, %d processed", got, processed)
	}
	if s.Dropped > s.InboundUnmatched {
		t.Fatalf("dropped %d exceeds unmatched %d", s.Dropped, s.InboundUnmatched)
	}
}

// TestChaosLimiterMutatedTraces runs the limiter over reordered,
// duplicated, and clock-regressed variants of a trace. No mutation may
// panic, break the accounting invariants, or desert a verdict.
func TestChaosLimiterMutatedTraces(t *testing.T) {
	base := chaosTrace(8000, 1)
	mutations := []struct {
		name   string
		mutate func([]Packet) []Packet
	}{
		{"clean", func(p []Packet) []Packet { return p }},
		{"reordered", func(p []Packet) []Packet {
			faultinject.Reorder(p, 16, 2)
			return p
		}},
		{"duplicated", func(p []Packet) []Packet {
			return faultinject.Duplicate(p, 0.15, 3)
		}},
		{"clock-regressed", func(p []Packet) []Packet {
			faultinject.ClockRegress(p, func(q *Packet) *time.Duration { return &q.Timestamp }, 0.2, 3*time.Second, 4)
			return p
		}},
		{"everything", func(p []Packet) []Packet {
			p = faultinject.Duplicate(p, 0.1, 5)
			faultinject.Reorder(p, 32, 6)
			faultinject.ClockRegress(p, func(q *Packet) *time.Duration { return &q.Timestamp }, 0.1, 10*time.Second, 7)
			return p
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			pkts := m.mutate(append([]Packet(nil), base...))
			l, err := New(Config{
				ClientNetwork:    "140.112.0.0/16",
				LowMbps:          0.5,
				HighMbps:         1,
				ReorderTolerance: 40 * time.Millisecond,
				Seed:             9,
			})
			if err != nil {
				t.Fatal(err)
			}
			verdicts := l.ProcessBatch(pkts, nil)
			if len(verdicts) != len(pkts) {
				t.Fatalf("%d verdicts for %d packets", len(verdicts), len(pkts))
			}
			s := l.Stats()
			checkStats(t, s, len(pkts))
			switch m.name {
			case "clean", "reordered", "duplicated":
				// Small reorders sit inside the tolerance window;
				// duplicates are equal timestamps, never anomalies.
				if s.TimeAnomalies != 0 {
					t.Fatalf("unexpected time anomalies: %d", s.TimeAnomalies)
				}
			case "clock-regressed", "everything":
				if s.TimeAnomalies == 0 {
					t.Fatal("multi-second regressions not surfaced in TimeAnomalies")
				}
			}
		})
	}
}

// TestChaosPipelineShed saturates a gated single-shard front end and
// verifies that overflow degrades by the configured policy — counted,
// undecided, and without deadlocking the producer.
func TestChaosPipelineShed(t *testing.T) {
	for _, policy := range []ShedPolicy{ShedFailOpen, ShedFailClosed} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, fe := range frontEnds {
				t.Run(fe.name, func(t *testing.T) {
					gate := make(chan struct{})
					p := fe.start(t,
						Config{ClientNetwork: "140.112.0.0/16", Seed: 1},
						PipelineConfig{Shards: 1, RingSize: 64, OnOverload: policy, testGate: gate},
					)
					pkts := chaosTrace(256, 2)
					// Workers are gated, so exactly RingSize packets fit and
					// the rest must shed — Submit never blocks.
					doneSubmitting := make(chan struct{})
					go func() {
						defer close(doneSubmitting)
						p.SubmitBatch(pkts[:128])
						for _, pkt := range pkts[128:] {
							p.Submit(pkt)
						}
					}()
					select {
					case <-doneSubmitting:
					case <-time.After(10 * time.Second):
						t.Fatal("submission deadlocked against a saturated ring")
					}
					shedPassed, shedDropped := p.Shed()
					shed := shedPassed + shedDropped
					if shed != int64(len(pkts)-64) {
						t.Fatalf("expected %d shed, got %d", len(pkts)-64, shed)
					}
					if policy == ShedFailOpen && shedDropped != 0 {
						t.Fatalf("fail-open shed counted as dropped: %d", shedDropped)
					}
					if policy == ShedFailClosed && shedPassed != 0 {
						t.Fatalf("fail-closed shed counted as passed: %d", shedPassed)
					}
					close(gate)
					p.Drain()
					passed, dropped := p.Verdicts()
					if passed+dropped != 64 {
						t.Fatalf("decided %d, expected the %d ring-buffered packets", passed+dropped, 64)
					}
					p.Close()
					s := p.Stats()
					checkStats(t, s, 64)
					if s.ShedPassed != shedPassed || s.ShedDropped != shedDropped {
						t.Fatalf("stats shed counters diverge: %d/%d vs %d/%d",
							s.ShedPassed, s.ShedDropped, shedPassed, shedDropped)
					}
				})
			}
		})
	}
}

// TestChaosPipelineTrySubmit: TrySubmit reports a full ring without
// taking or counting the packet, and works again once the ring drains.
func TestChaosPipelineTrySubmit(t *testing.T) {
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			gate := make(chan struct{})
			p := fe.start(t,
				Config{ClientNetwork: "140.112.0.0/16"},
				PipelineConfig{Shards: 1, RingSize: 4, testGate: gate},
			)
			pkt := chaosTrace(1, 3)[0]
			for i := 0; i < 4; i++ {
				if !p.TrySubmit(pkt) {
					t.Fatalf("TrySubmit failed with %d/4 slots used", i)
				}
			}
			if p.TrySubmit(pkt) {
				t.Fatal("TrySubmit succeeded on a full ring")
			}
			if sp, sd := p.Shed(); sp != 0 || sd != 0 {
				t.Fatalf("TrySubmit counted shed packets: %d/%d", sp, sd)
			}
			close(gate)
			p.Drain()
			if !p.TrySubmit(pkt) {
				t.Fatal("TrySubmit failed after the ring drained")
			}
			p.Drain()
			p.Close()
			if passed, dropped := p.Verdicts(); passed+dropped != 5 {
				t.Fatalf("decided %d, want 5", passed+dropped)
			}
		})
	}
}

// TestChaosPipelineShedConcurrent hammers a small fail-closed ring from
// several producers under the race detector: every packet must be
// accounted exactly once, as a verdict or as a shed.
func TestChaosPipelineShedConcurrent(t *testing.T) {
	p, err := NewPipeline(
		Config{ClientNetwork: "140.112.0.0/16", Seed: 4},
		PipelineConfig{Shards: 2, RingSize: 32, BatchSize: 8, OnOverload: ShedFailClosed},
	)
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 4000
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			pkts := chaosTrace(perProducer, uint64(100+pr))
			for i := 0; i < len(pkts); i += 50 {
				end := i + 50
				if end > len(pkts) {
					end = len(pkts)
				}
				p.SubmitBatch(pkts[i:end])
			}
		}(pr)
	}
	wg.Wait()
	p.Drain()
	p.Close()
	passed, dropped := p.Verdicts()
	shedPassed, shedDropped := p.Shed()
	total := passed + dropped + shedPassed + shedDropped
	if total != producers*perProducer {
		t.Fatalf("accounting leak: %d accounted, %d submitted", total, producers*perProducer)
	}
	checkStats(t, p.Stats(), int(passed+dropped))
}

// TestChaosSaveStateFaultyWriter: snapshot writes through failing and
// short-writing writers surface errors instead of silently truncating.
func TestChaosSaveStateFaultyWriter(t *testing.T) {
	l, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	l.ProcessBatch(chaosTrace(500, 5), nil)
	for _, failAfter := range []int64{0, 1, 56, 4096, 100_000} {
		w := &faultinject.Writer{FailAfter: failAfter, W: &bytes.Buffer{}}
		if err := l.SaveState(w); err == nil {
			t.Fatalf("write failing after %d bytes reported success", failAfter)
		}
	}
	// A clean save after the failed attempts restores bit-identically —
	// the failed writes left no state behind in the limiter.
	var slow bytes.Buffer
	if err := l.SaveState(&slow); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(bytes.NewReader(slow.Bytes())); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
}

// TestChaosRestoreStateFaultyReader: truncated, bit-flipped, and
// error-injecting snapshot streams are rejected cleanly and leave the
// limiter's previous state untouched.
func TestChaosRestoreStateFaultyReader(t *testing.T) {
	l, err := New(Config{ClientNetwork: "140.112.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	l.ProcessBatch(chaosTrace(500, 6), nil)
	var snap bytes.Buffer
	if err := l.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Limiter {
		f, err := New(Config{ClientNetwork: "140.112.0.0/16"})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, n := range []int{0, 10, 56, 1000, snap.Len() - 1} {
		if err := fresh().RestoreState(bytes.NewReader(faultinject.Truncate(snap.Bytes(), n))); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for _, bit := range []int{0, 77, 56 * 8, snap.Len()*8 - 1} {
		if err := fresh().RestoreState(bytes.NewReader(faultinject.FlipBit(snap.Bytes(), bit))); err == nil {
			t.Fatalf("bit flip at %d accepted", bit)
		}
	}
	r := &faultinject.Reader{R: bytes.NewReader(snap.Bytes()), FailAfter: 200}
	if err := fresh().RestoreState(r); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("mid-stream read error not propagated: %v", err)
	}
	// Short reads are not errors: a stuttering but complete stream loads.
	r = &faultinject.Reader{R: bytes.NewReader(snap.Bytes()), FailAfter: -1, MaxRead: 3}
	if err := fresh().RestoreState(r); err != nil {
		t.Fatalf("short-reading stream rejected: %v", err)
	}
}

// TestChaosRestoreStateGeometryMismatch: a snapshot from a differently
// configured limiter is refused with a descriptive error unless adopted
// explicitly.
func TestChaosRestoreStateGeometryMismatch(t *testing.T) {
	src, err := New(Config{ClientNetwork: "140.112.0.0/16", Vectors: 2, VectorBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	src.ProcessBatch(chaosTrace(200, 7), nil)
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	dst, err := New(Config{ClientNetwork: "140.112.0.0/16"}) // default k=4, n=20
	if err != nil {
		t.Fatal(err)
	}
	before := dst.MemoryBytes()
	err = dst.RestoreState(bytes.NewReader(snap.Bytes()))
	if err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if !strings.Contains(err.Error(), "geometry mismatch") {
		t.Fatalf("undescriptive error: %v", err)
	}
	if dst.MemoryBytes() != before {
		t.Fatal("failed restore mutated the limiter")
	}
	if err := dst.AdoptState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("explicit adoption rejected: %v", err)
	}
	if dst.MemoryBytes() != src.MemoryBytes() {
		t.Fatalf("adoption did not take the snapshot geometry: %d vs %d",
			dst.MemoryBytes(), src.MemoryBytes())
	}
}

// TestRestoreStateRejectsSchemeLayoutMismatch: the bit layout, and the
// hash scheme it selects, are part of snapshot geometry — marks made
// under one index derivation are meaningless under another, so
// restoring across a layout change must fail like any other geometry
// mismatch.
func TestRestoreStateRejectsSchemeLayoutMismatch(t *testing.T) {
	src, err := New(Config{ClientNetwork: "140.112.0.0/16", Layout: LayoutBlocked})
	if err != nil {
		t.Fatal(err)
	}
	src.ProcessBatch(chaosTrace(200, 7), nil)
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{ClientNetwork: "140.112.0.0/16"}, // default: per-index classic
	} {
		dst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestoreState(bytes.NewReader(snap.Bytes()))
		if err == nil {
			t.Fatalf("cfg %+v: scheme/layout mismatch accepted", cfg)
		}
		if !strings.Contains(err.Error(), "geometry mismatch") {
			t.Fatalf("undescriptive error: %v", err)
		}
	}
	// Matching scheme+layout restores cleanly.
	twin, err := New(Config{ClientNetwork: "140.112.0.0/16", Layout: LayoutBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("matching blocked restore rejected: %v", err)
	}
}

// TestChaosFleetPartitionHeal drives a fleet over a netsim mesh under
// the same seeded partition/heal schedule the replica suite uses
// (faultinject.PartitionSchedule): flows marked on members isolated by
// the cut must still be admitted fleet-wide once the schedule heals,
// and members must never fail open while partitioned away from the
// fleet's state.
func TestChaosFleetPartitionHeal(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		const members, rounds = 3, 24
		part := faultinject.NewPartitionSchedule(faultinject.PartitionConfig{
			Nodes: members, Rounds: rounds / 2, Episodes: 2, AsymmetricProb: 0.5,
		}, seed)
		mesh := netsim.NewMesh(members, netsim.LinkConfig{Partitions: part, Seed: seed})
		fl, err := NewFleet(Config{
			ClientNetwork: "140.112.0.0/16",
			LowMbps:       1e-9, HighMbps: 2e-9, // saturated: only marks admit
			VectorBits: 12,
		}, FleetConfig{Replicas: members, DigestEvery: 1, Transport: mesh})
		if err != nil {
			t.Fatal(err)
		}
		// Saturate every member's meter, then mark flows spread across
		// members and rounds so deltas interleave with the partitions.
		for i := 0; i < members; i++ {
			fl.ProcessOnReplica(i, outPkt(0, 50000, 80, 1500))
		}
		flow := 0
		for r := 0; r < rounds; r++ {
			if r < rounds/2 {
				for i := 0; i < members; i++ {
					p := outPkt(time.Duration(r)*time.Millisecond, uint16(42000+flow), 6881, 1500)
					if d := fl.ProcessOnReplica(i, p); d != Pass {
						t.Fatalf("seed %d: outbound flow %d dropped", seed, flow)
					}
					flow++
				}
			}
			fl.Sync()
			mesh.NextRound()
		}
		if part.HealedAfter() > rounds/2 {
			t.Fatalf("seed %d: schedule not healed within its own horizon", seed)
		}
		for i := 0; i < members; i++ {
			if !fl.Ready(i) {
				t.Fatalf("seed %d: member %d not ready after heal", seed, i)
			}
		}
		// Every flow admitted on every member — including flows marked
		// while the marker was cut off from that member.
		ts := time.Duration(rounds) * time.Millisecond
		for f := 0; f < flow; f++ {
			for i := 0; i < members; i++ {
				if d := fl.ProcessOnReplica(i, inPkt(ts, 6881, uint16(42000+f), 1500)); d != Pass {
					t.Fatalf("seed %d: flow %d dropped on member %d after heal", seed, f, i)
				}
			}
		}
		for i := 0; i < members; i++ {
			if d := fl.ProcessOnReplica(i, inPkt(ts, 1234, 9, 1500)); d != Drop {
				t.Fatalf("seed %d: unmarked inbound passed on member %d", seed, i)
			}
		}
	}
}
