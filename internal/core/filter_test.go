package core

import (
	"testing"
	"testing/quick"
	"time"

	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

func testConfig() Config {
	return Config{K: 4, NBits: 16, M: 3, DeltaT: 5 * time.Second}
}

func pairN(i uint32) packet.SocketPair {
	return packet.SocketPair{
		Proto:   packet.TCP,
		SrcAddr: packet.AddrFrom4(140, 112, byte(i>>8), byte(i)),
		SrcPort: uint16(30000 + i%10000),
		DstAddr: packet.AddrFrom4(8, byte(i>>16), byte(i>>8), byte(i)),
		DstPort: uint16(10000 + i%20000),
	}
}

func outPkt(ts time.Duration, pair packet.SocketPair) *packet.Packet {
	return &packet.Packet{TS: ts, Pair: pair, Dir: packet.Outbound, Len: 60}
}

func inPkt(ts time.Duration, pair packet.SocketPair) *packet.Packet {
	return &packet.Packet{TS: ts, Pair: pair.Inverse(), Dir: packet.Inbound, Len: 60}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero K", func(c *Config) { c.K = 0 }, false},
		{"zero NBits", func(c *Config) { c.NBits = 0 }, false},
		{"huge NBits", func(c *Config) { c.NBits = 33 }, false},
		{"zero M", func(c *Config) { c.M = 0 }, false},
		{"zero DeltaT", func(c *Config) { c.DeltaT = 0 }, false},
		{"bad hash scheme", func(c *Config) { c.HashScheme = 99 }, false},
		{"blocked per-index", func(c *Config) { c.HashScheme, c.Layout = hashes.SchemePerIndex, hashes.LayoutBlocked }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			_, err := New(cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("New error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Bytes(); got != 512*1024 {
		t.Fatalf("default filter memory = %d bytes, want 512 KiB (the paper's 512K)", got)
	}
	if got := f.TE(); got != 20*time.Second {
		t.Fatalf("default T_e = %v, want 20s", got)
	}
}

func TestOutboundAlwaysPasses(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if v := f.Process(outPkt(0, pairN(i)), 1); v != Pass {
			t.Fatalf("outbound packet %d: %v", i, v)
		}
	}
	if got := f.Stats().OutboundPackets; got != 100 {
		t.Fatalf("outbound counter = %d", got)
	}
}

func TestInboundResponseAdmitted(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pair := pairN(7)
	f.Process(outPkt(0, pair), 1)
	if v := f.Process(inPkt(time.Second, pair), 1); v != Pass {
		t.Fatalf("response to outbound request dropped: %v", v)
	}
	if got := f.Stats().InboundHits; got != 1 {
		t.Fatalf("inbound hits = %d", got)
	}
}

func TestUnsolicitedInboundDropped(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i := uint32(0); i < 1000; i++ {
		f.Advance(time.Duration(i) * time.Millisecond)
		if f.Process(inPkt(time.Duration(i)*time.Millisecond, pairN(i)), 1) == Drop {
			dropped++
		}
	}
	// With P_d = 1 and an empty filter, essentially everything must
	// drop; allow a handful of hash-collision escapes.
	if dropped < 990 {
		t.Fatalf("dropped %d/1000 unsolicited inbound packets", dropped)
	}
}

func TestPdZeroNeverDrops(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 500; i++ {
		if f.Process(inPkt(0, pairN(i)), 0) == Drop {
			t.Fatal("packet dropped with P_d = 0")
		}
	}
	if missed := f.Stats().InboundMisses; missed != 500 {
		t.Fatalf("misses = %d, want 500", missed)
	}
}

// TestPdFractionalDropRate property: with P_d = p, roughly a p-fraction of
// fully-unmarked inbound packets is dropped (each of the m unmarked bits
// draws independently, so the per-packet drop probability is
// 1-(1-p)^m for an m-hash filter — the paper's Algorithm 2 semantics).
func TestPdFractionalDropRate(t *testing.T) {
	cfg := testConfig()
	cfg.NBits = 20 // keep collisions negligible
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	const pd = 0.2
	dropped := 0
	for i := uint32(0); i < n; i++ {
		if f.Process(inPkt(0, pairN(i)), pd) == Drop {
			dropped++
		}
	}
	want := 1 - (1-pd)*(1-pd)*(1-pd) // m = 3
	got := float64(dropped) / n
	if got < want-0.03 || got > want+0.03 {
		t.Fatalf("drop fraction = %.3f, want ≈%.3f", got, want)
	}
}

// TestRetentionWindow pins the Algorithm 1 semantics: a flow marked once
// stays admitted for at least (k−1)·Δt and at most k·Δt.
func TestRetentionWindow(t *testing.T) {
	cfg := testConfig() // k=4, Δt=5s → window [15s, 20s]
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair := pairN(1)
	f.Advance(0)
	f.Process(outPkt(0, pair), 1)

	// Just before (k−1)·Δt: must still be admitted.
	f.Advance(14 * time.Second)
	if !f.Contains(pair.Inverse()) {
		t.Fatal("flow forgotten before (k−1)·Δt")
	}
	// Beyond k·Δt: must be forgotten.
	f.Advance(21 * time.Second)
	if f.Contains(pair.Inverse()) {
		t.Fatal("flow remembered beyond k·Δt")
	}
}

// TestRemarkExtendsRetention: traffic keeps a flow alive indefinitely.
func TestRemarkExtendsRetention(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pair := pairN(2)
	for s := 0; s < 300; s += 3 {
		ts := time.Duration(s) * time.Second
		f.Advance(ts)
		f.Process(outPkt(ts, pair), 1)
		if v := f.Process(inPkt(ts+time.Second, pair), 1); v != Pass {
			t.Fatalf("active flow dropped at %v", ts)
		}
	}
}

func TestRotateCountsAndClears(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(0)
	f.Mark(pairN(3))
	if f.Utilization() == 0 {
		t.Fatal("mark did not set bits")
	}
	for i := 0; i < 4; i++ {
		f.Rotate()
	}
	if got := f.Stats().Rotations; got != 4 {
		t.Fatalf("rotations = %d", got)
	}
	if f.Utilization() != 0 {
		t.Fatal("bits survive k rotations without remarking")
	}
}

func TestAdvanceRotatesOnSchedule(t *testing.T) {
	f, err := New(testConfig()) // Δt = 5s
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(time.Second) // start clock
	f.Advance(4 * time.Second)
	if got := f.Stats().Rotations; got != 0 {
		t.Fatalf("rotated too early: %d", got)
	}
	f.Advance(5 * time.Second)
	if got := f.Stats().Rotations; got != 1 {
		t.Fatalf("rotations after 5s = %d, want 1", got)
	}
	f.Advance(26 * time.Second)
	if got := f.Stats().Rotations; got != 5 {
		t.Fatalf("rotations after 26s = %d, want 5", got)
	}
}

// TestHolePunchAdmitsShiftedPort: with HolePunch on, an inbound reply from
// a rewritten remote port is admitted; with it off, it is challenged.
func TestHolePunchAdmitsShiftedPort(t *testing.T) {
	out := packet.SocketPair{
		Proto:   packet.UDP,
		SrcAddr: packet.AddrFrom4(140, 112, 0, 5), SrcPort: 40000,
		DstAddr: packet.AddrFrom4(8, 8, 8, 8), DstPort: 3478,
	}
	shifted := packet.SocketPair{
		Proto:   packet.UDP,
		SrcAddr: out.DstAddr, SrcPort: 3999, // NAT-rewritten source port
		DstAddr: out.SrcAddr, DstPort: out.SrcPort,
	}
	for _, holePunch := range []bool{false, true} {
		cfg := testConfig()
		cfg.HolePunch = holePunch
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Process(&packet.Packet{TS: 0, Pair: out, Dir: packet.Outbound}, 1)
		got := f.Contains(shifted)
		if got != holePunch {
			t.Errorf("holePunch=%v: Contains(shifted-port reply) = %v", holePunch, got)
		}
	}
}

// TestNoFalseNegativesWithinWindow property: any marked pair is admitted
// while within the retention window, for every index derivation.
func TestNoFalseNegativesWithinWindow(t *testing.T) {
	for _, layout := range []hashes.Layout{hashes.LayoutClassic, hashes.LayoutBlocked} {
		cfg := testConfig()
		cfg.Layout = layout
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(i uint32) bool {
			pair := pairN(i)
			f.Mark(pair)
			return f.Contains(pair.Inverse())
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%v layout: %v", layout, err)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Pass.String() != "PASS" || Drop.String() != "DROP" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Fatal("unknown verdict name wrong")
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() []Verdict {
		cfg := testConfig()
		cfg.Seed = 99
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []Verdict
		for i := uint32(0); i < 200; i++ {
			out = append(out, f.Process(inPkt(0, pairN(i)), 0.5))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical runs", i)
		}
	}
}

// TestInboundAccountingInvariant pins the Stats contract: every
// inspected inbound packet is exactly one hit or one miss, whether it
// survives, drops on its first unmarked bit, or drops on a later one —
// InboundHits + InboundMisses == InboundPackets, and Dropped never
// exceeds InboundMisses.
func TestInboundAccountingInvariant(t *testing.T) {
	for _, pd := range []float64{0, 0.3, 0.7, 1} {
		cfg := testConfig()
		cfg.Seed = 21
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := time.Duration(0)
		for i := uint32(0); i < 20_000; i++ {
			ts += 300 * time.Microsecond
			f.Advance(ts)
			switch i % 5 {
			case 0:
				f.Process(outPkt(ts, pairN(i)), pd)
			case 1:
				f.Process(inPkt(ts, pairN(i-1)), pd) // likely hit
			default:
				f.Process(inPkt(ts, pairN(1_000_000+i)), pd) // likely miss
			}
		}
		s := f.Stats()
		if s.InboundHits+s.InboundMisses != s.InboundPackets {
			t.Fatalf("pd=%g: hits %d + misses %d != inbound %d",
				pd, s.InboundHits, s.InboundMisses, s.InboundPackets)
		}
		if s.Dropped > s.InboundMisses {
			t.Fatalf("pd=%g: dropped %d > misses %d", pd, s.Dropped, s.InboundMisses)
		}
		if pd == 1 && s.Dropped != s.InboundMisses {
			t.Fatalf("pd=1: dropped %d != misses %d", s.Dropped, s.InboundMisses)
		}
		if pd == 0 && s.Dropped != 0 {
			t.Fatalf("pd=0: dropped %d", s.Dropped)
		}
	}
}

// TestProcessBatchMatchesSequential pins Filter.ProcessBatch to the
// per-packet Advance+Process loop: identical verdicts and counters on
// the same deterministic workload.
func TestProcessBatchMatchesSequential(t *testing.T) {
	mk := func() *Filter {
		cfg := testConfig()
		cfg.Seed = 7
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var pkts []packet.Packet
	ts := time.Duration(0)
	for i := uint32(0); i < 30_000; i++ {
		ts += 700 * time.Microsecond
		if i%3 == 0 {
			pkts = append(pkts, *outPkt(ts, pairN(i)))
		} else {
			pkts = append(pkts, *inPkt(ts, pairN(i/2)))
		}
	}
	const pd = 0.4

	seq := mk()
	var want []Verdict
	for i := range pkts {
		seq.Advance(pkts[i].TS)
		want = append(want, seq.Process(&pkts[i], pd))
	}

	bat := mk()
	var got []Verdict
	for lo := 0; lo < len(pkts); lo += 257 {
		hi := lo + 257
		if hi > len(pkts) {
			hi = len(pkts)
		}
		got = bat.ProcessBatch(pkts[lo:hi], pd, got)
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

// TestAdvanceLongGapFastPath pins the O(k) idle-gap fast path to the
// rotate-by-rotate loop: same rotation count, same index, same logical
// contents (everything cleared once the gap exceeds T_e).
func TestAdvanceLongGapFastPath(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(0)
	f.Mark(pairN(1))
	f.Advance(cfg.DeltaT) // one normal rotation
	if f.Stats().Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", f.Stats().Rotations)
	}
	// Jump a year ahead: rotations due = gap/Δt, all vectors cleared.
	gap := 365 * 24 * time.Hour
	f.Advance(cfg.DeltaT + gap)
	wantRot := int64(1 + gap/cfg.DeltaT)
	if got := f.Stats().Rotations; got != wantRot {
		t.Fatalf("rotations after gap = %d, want %d", got, wantRot)
	}
	if f.Contains(pairN(1).Inverse()) {
		t.Fatal("mark survived a gap beyond T_e")
	}
	if f.Utilization() != 0 {
		t.Fatalf("utilization %g after full expiry", f.Utilization())
	}
	// The filter keeps rotating on schedule after the jump.
	f.Mark(pairN(2))
	f.Advance(cfg.DeltaT + gap + cfg.DeltaT)
	if got := f.Stats().Rotations; got != wantRot+1 {
		t.Fatalf("rotations after resume = %d, want %d", got, wantRot+1)
	}
}
