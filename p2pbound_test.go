package p2pbound

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

func newLimiter(t *testing.T, cfg Config) *Limiter {
	t.Helper()
	if cfg.ClientNetwork == "" {
		cfg.ClientNetwork = "140.112.0.0/16"
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var (
	clientAddr = netip.MustParseAddr("140.112.1.10")
	remoteAddr = netip.MustParseAddr("8.8.8.8")
)

func outPkt(ts time.Duration, srcPort, dstPort uint16, size int) Packet {
	return Packet{
		Timestamp: ts, Protocol: TCP,
		SrcAddr: clientAddr, SrcPort: srcPort,
		DstAddr: remoteAddr, DstPort: dstPort,
		Size: size,
	}
}

func inPkt(ts time.Duration, srcPort, dstPort uint16, size int) Packet {
	return Packet{
		Timestamp: ts, Protocol: TCP,
		SrcAddr: remoteAddr, SrcPort: srcPort,
		DstAddr: clientAddr, DstPort: dstPort,
		Size: size,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing client network accepted")
	}
	if _, err := New(Config{ClientNetwork: "not-a-cidr"}); err == nil {
		t.Fatal("bad CIDR accepted")
	}
	if _, err := New(Config{ClientNetwork: "10.0.0.0/8", LowMbps: 100, HighMbps: 50}); err == nil {
		t.Fatal("inverted thresholds accepted")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	l := newLimiter(t, Config{})
	if got := l.MemoryBytes(); got != 512*1024 {
		t.Fatalf("default memory = %d, want 512 KiB", got)
	}
	if got := l.ExpiryHorizon(); got != 20*time.Second {
		t.Fatalf("default T_e = %v, want 20s", got)
	}
}

func TestOutboundAlwaysPasses(t *testing.T) {
	l := newLimiter(t, Config{})
	for i := 0; i < 100; i++ {
		if d := l.Process(outPkt(0, uint16(40000+i), 80, 1500)); d != Pass {
			t.Fatalf("outbound packet dropped: %v", d)
		}
	}
	if s := l.Stats(); s.OutboundPackets != 100 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestResponsesAdmittedUnderLoad(t *testing.T) {
	// Thresholds low enough that the uplink is "full" immediately.
	l := newLimiter(t, Config{LowMbps: 0.001, HighMbps: 0.002})
	l.Process(outPkt(0, 40000, 80, 100_000))
	l.Process(outPkt(time.Second, 40000, 80, 100_000))
	if got := l.DropProbability(); got != 1 {
		t.Fatalf("P_d = %g, want 1 under full load", got)
	}
	// The response to our own request still passes.
	if d := l.Process(inPkt(time.Second+time.Millisecond, 80, 40000, 1500)); d != Pass {
		t.Fatalf("response dropped: %v", d)
	}
	// An unsolicited inbound request is dropped.
	if d := l.Process(inPkt(time.Second+2*time.Millisecond, 50000, 31337, 1500)); d != Drop {
		t.Fatalf("unsolicited inbound = %v, want Drop", d)
	}
}

func TestNoDropsBelowLowThreshold(t *testing.T) {
	l := newLimiter(t, Config{LowMbps: 1000, HighMbps: 2000})
	dropped := 0
	for i := 0; i < 500; i++ {
		if l.Process(inPkt(0, uint16(50000+i), uint16(20000+i), 1500)) == Drop {
			dropped++
		}
	}
	if dropped != 0 {
		t.Fatalf("%d packets dropped below the low threshold", dropped)
	}
	if got := l.DropProbability(); got != 0 {
		t.Fatalf("P_d = %g", got)
	}
}

// TestDropProbabilityFailClosed: in fail-closed mode every unmatched
// inbound packet is decided with P_d 1, so DropProbability reports 1
// even on an idle uplink, and the ramp's 0 again once it is lifted.
func TestDropProbabilityFailClosed(t *testing.T) {
	l := newLimiter(t, Config{})
	l.SetFailClosed(true)
	if got := l.DropProbability(); got != 1 {
		t.Fatalf("fail-closed P_d = %g, want 1", got)
	}
	l.SetFailClosed(false)
	if got := l.DropProbability(); got != 0 {
		t.Fatalf("P_d = %g after fail-closed is lifted, want 0", got)
	}
}

func TestUplinkMeterTracksPassedTraffic(t *testing.T) {
	l := newLimiter(t, Config{})
	for s := 0; s < 5; s++ {
		// 1 MB/s of upload.
		l.Process(outPkt(time.Duration(s)*time.Second, 40000, 80, 1_000_000))
	}
	got := l.UplinkMbps()
	if got < 7 || got > 9 {
		t.Fatalf("uplink = %.2f Mbps, want ≈8", got)
	}
}

func TestHolePunchConfig(t *testing.T) {
	for _, hp := range []bool{false, true} {
		l := newLimiter(t, Config{HolePunch: hp, LowMbps: 0.0001, HighMbps: 0.0002})
		punch := Packet{
			Timestamp: 0, Protocol: UDP,
			SrcAddr: clientAddr, SrcPort: 4500,
			DstAddr: remoteAddr, DstPort: 3478,
			Size: 10_000_000, // saturate the meter so P_d = 1
		}
		l.Process(punch)
		reply := Packet{
			Timestamp: 10 * time.Millisecond, Protocol: UDP,
			SrcAddr: remoteAddr, SrcPort: 9999, // shifted source port
			DstAddr: clientAddr, DstPort: 4500,
			Size: 60,
		}
		got := l.Process(reply)
		want := Drop
		if hp {
			want = Pass
		}
		if got != want {
			t.Errorf("holePunch=%v: shifted reply = %v, want %v", hp, got, want)
		}
	}
}

func TestNonIPv4Dropped(t *testing.T) {
	l := newLimiter(t, Config{})
	v6 := Packet{
		Timestamp: 0, Protocol: TCP,
		SrcAddr: netip.MustParseAddr("2001:db8::1"), SrcPort: 1,
		DstAddr: clientAddr, DstPort: 2,
		Size: 60,
	}
	if d := l.Process(v6); d != Drop {
		t.Fatalf("IPv6 packet = %v, want defensive Drop", d)
	}
	s := l.Stats()
	if s.Unroutable != 1 {
		t.Fatalf("Unroutable = %d, want 1", s.Unroutable)
	}
	// The defensive drop appears in no other counter.
	if s.InboundPackets != 0 || s.OutboundPackets != 0 || s.Dropped != 0 {
		t.Fatalf("unroutable packet leaked into other counters: %+v", s)
	}
	// IPv4-mapped IPv6 is also rejected (Is4 is false for 4-in-6).
	mapped := v6
	mapped.SrcAddr = netip.MustParseAddr("::ffff:8.8.8.8")
	if d := l.Process(mapped); d != Drop {
		t.Fatalf("4-in-6 packet = %v, want defensive Drop", d)
	}
	if got := l.Stats().Unroutable; got != 2 {
		t.Fatalf("Unroutable = %d, want 2", got)
	}
}

// TestProcessAllocationFree pins the zero-allocation hot path: the
// public Limiter.Process and ProcessBatch must not heap-allocate per
// packet.
func TestProcessAllocationFree(t *testing.T) {
	l := newLimiter(t, Config{})
	client := netip.MustParseAddr("140.112.1.2")
	remote := netip.MustParseAddr("8.8.8.8")
	pkts := make([]Packet, 256)
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
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		l.Process(pkts[i%len(pkts)])
		i++
	}); avg != 0 {
		t.Fatalf("Process allocates %.2f allocs/op, want 0", avg)
	}

	lb := newLimiter(t, Config{})
	dst := make([]Decision, 0, len(pkts))
	if avg := testing.AllocsPerRun(100, func() {
		dst = lb.ProcessBatch(pkts, dst[:0])
	}); avg != 0 {
		t.Fatalf("ProcessBatch allocates %.2f allocs/op, want 0", avg)
	}
}

func TestCustomGeometry(t *testing.T) {
	l := newLimiter(t, Config{
		Vectors:       2,
		VectorBits:    12,
		HashFunctions: 4,
		RotateEvery:   time.Second,
	})
	if got := l.MemoryBytes(); got != 2*(1<<12)/8 {
		t.Fatalf("memory = %d", got)
	}
	if got := l.ExpiryHorizon(); got != 2*time.Second {
		t.Fatalf("T_e = %v", got)
	}
}

func TestDecisionString(t *testing.T) {
	if Pass.String() != "PASS" || Drop.String() != "DROP" || Decision(7).String() != "decision(7)" {
		t.Fatal("decision names wrong")
	}
}

func TestStatsSnapshot(t *testing.T) {
	l := newLimiter(t, Config{LowMbps: 0.0001, HighMbps: 0.0002})
	l.Process(outPkt(0, 40000, 80, 1_000_000))
	l.Process(inPkt(time.Millisecond, 80, 40000, 100))   // matched
	l.Process(inPkt(2*time.Millisecond, 81, 40001, 100)) // unsolicited
	s := l.Stats()
	if s.OutboundPackets != 1 || s.InboundPackets != 2 || s.InboundMatched != 1 || s.Dropped != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSaveRestoreState(t *testing.T) {
	l := newLimiter(t, Config{LowMbps: 0.0001, HighMbps: 0.0002})
	// Track a flow and saturate the meter.
	l.Process(outPkt(0, 40000, 80, 10_000_000))

	var buf bytes.Buffer
	if err := l.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A "restarted" limiter without state challenges the response...
	fresh := newLimiter(t, Config{LowMbps: 0.0001, HighMbps: 0.0002})
	fresh.Process(outPkt(time.Second, 49999, 81, 10_000_000)) // saturate meter
	if d := fresh.Process(inPkt(time.Second+time.Millisecond, 80, 40000, 100)); d != Drop {
		t.Fatalf("fresh limiter admitted unknown flow: %v", d)
	}
	// ...but after restoring the snapshot it admits it again.
	if err := fresh.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d := fresh.Process(inPkt(time.Second+2*time.Millisecond, 80, 40000, 100)); d != Pass {
		t.Fatalf("restored limiter dropped a tracked flow: %v", d)
	}
}

func TestRestoreStateRejectsGarbage(t *testing.T) {
	l := newLimiter(t, Config{})
	if err := l.RestoreState(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
