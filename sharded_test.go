package p2pbound

import (
	"math/rand/v2"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(Config{ClientNetwork: "10.0.0.0/8"}, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewSharded(Config{}, 4); err == nil {
		t.Fatal("missing client network accepted")
	}
}

// TestShardOfDirectionInvariant property: both directions of a connection
// map to the same shard.
func TestShardOfDirectionInvariant(t *testing.T) {
	s, err := NewSharded(Config{ClientNetwork: "140.112.0.0/16"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b [4]byte, ap, bp uint16, proto bool) bool {
		pr := TCP
		if proto {
			pr = UDP
		}
		fwd := Packet{
			Protocol: pr,
			SrcAddr:  netip.AddrFrom4(a), SrcPort: ap,
			DstAddr: netip.AddrFrom4(b), DstPort: bp,
		}
		rev := Packet{
			Protocol: pr,
			SrcAddr:  netip.AddrFrom4(b), SrcPort: bp,
			DstAddr: netip.AddrFrom4(a), DstPort: ap,
		}
		return s.ShardOf(fwd) == s.ShardOf(rev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// goldenShardPkts is a seeded set of IPv4 packets over random
// addresses, ports and protocols.
func goldenShardPkts() []Packet {
	rng := rand.New(rand.NewPCG(23, 5))
	pkts := make([]Packet, 96)
	for i := range pkts {
		u, v := rng.Uint32(), rng.Uint32()
		proto := TCP
		if rng.IntN(2) == 1 {
			proto = UDP
		}
		pkts[i] = Packet{
			Timestamp: time.Duration(i) * time.Millisecond,
			Protocol:  proto,
			SrcAddr:   netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}),
			SrcPort:   uint16(rng.Uint32()),
			DstAddr:   netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}),
			DstPort:   uint16(rng.Uint32()),
			Size:      64 + rng.IntN(1400),
		}
	}
	return pkts
}

// TestShardOfGolden pins which shard each packet lands on. A deployment
// binds shards to NIC queues and a Pipeline routes by the same hash, so
// a change to the connection hash would move flows. Each digit is one
// packet's shard, recorded from the hash as it stood when the executor
// still carried public Packets. Unroutable packets go to shard 0.
func TestShardOfGolden(t *testing.T) {
	want := map[int]string{
		2: "100011110100110101000101100110100000110001000011010100000110110101010100010101000100000101100100",
		4: "100013112100312121220303320310322020312201022011212300020330130301032100030323020302022103302102",
		8: "504417116100356121220707324314726020352241022415252304060734134741476504434327464742022507346506",
	}
	pkts := goldenShardPkts()
	for _, n := range []int{2, 4, 8} {
		s, err := NewSharded(Config{ClientNetwork: testNet}, n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(pkts))
		for i, p := range pkts {
			got[i] = '0' + byte(s.ShardOf(p))
		}
		if string(got) != want[n] {
			t.Errorf("%d shards:\n got %s\nwant %s", n, got, want[n])
		}
		for _, bad := range []netip.Addr{netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:8.8.8.8"), {}} {
			for _, p := range pkts[:8] {
				src, dst := p, p
				src.SrcAddr, dst.DstAddr = bad, bad
				if a, b := s.ShardOf(src), s.ShardOf(dst); a != 0 || b != 0 {
					t.Errorf("%d shards: a packet with address %v routes to shards %d and %d, want 0", n, bad, a, b)
				}
			}
		}
	}
}

func TestShardBalance(t *testing.T) {
	const shards = 8
	s, err := NewSharded(Config{ClientNetwork: "140.112.0.0/16"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < 80000; i++ {
		p := Packet{
			Protocol: TCP,
			SrcAddr:  netip.AddrFrom4([4]byte{140, 112, byte(i >> 8), byte(i)}),
			SrcPort:  uint16(20000 + i%30000),
			DstAddr:  netip.AddrFrom4([4]byte{8, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstPort:  uint16(i % 60000),
		}
		counts[s.ShardOf(p)]++
	}
	want := 80000 / shards
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("shard %d holds %d connections, want ≈%d (imbalanced hash)", i, c, want)
		}
	}
}

// TestShardedSemantics: the positive-listing behaviour survives sharding —
// a response follows its request onto the same shard and passes.
func TestShardedSemantics(t *testing.T) {
	s, err := NewSharded(Config{
		ClientNetwork: "140.112.0.0/16",
		LowMbps:       0.0001, HighMbps: 0.0002, // saturate instantly
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := netip.MustParseAddr("140.112.3.3")
	remote := netip.MustParseAddr("7.7.7.7")
	req := Packet{
		Timestamp: 0, Protocol: TCP,
		SrcAddr: client, SrcPort: 40000, DstAddr: remote, DstPort: 80,
		Size: 1_000_000,
	}
	if d := s.Process(req); d != Pass {
		t.Fatalf("outbound = %v", d)
	}
	resp := Packet{
		Timestamp: 10 * time.Millisecond, Protocol: TCP,
		SrcAddr: remote, SrcPort: 80, DstAddr: client, DstPort: 40000,
		Size: 1500,
	}
	if d := s.Process(resp); d != Pass {
		t.Fatalf("response = %v", d)
	}
	// An unsolicited inbound packet on the saturated shard drops. Drive
	// enough distinct connections that every shard saturates.
	for i := 0; i < 4; i++ {
		s.Process(Packet{
			Timestamp: 20 * time.Millisecond, Protocol: TCP,
			SrcAddr: client, SrcPort: uint16(41000 + i), DstAddr: remote, DstPort: 80,
			Size: 1_000_000,
		})
	}
	dropped := 0
	for i := 0; i < 64; i++ {
		d := s.Process(Packet{
			Timestamp: 30 * time.Millisecond, Protocol: TCP,
			SrcAddr: remote, SrcPort: uint16(50000 + i), DstAddr: client, DstPort: uint16(31000 + i),
			Size: 60,
		})
		if d == Drop {
			dropped++
		}
	}
	if dropped < 32 {
		t.Fatalf("only %d/64 unsolicited packets dropped across shards", dropped)
	}
}

// TestShardedConcurrentUse drives every shard from its own goroutine — the
// intended deployment — under the race detector.
func TestShardedConcurrentUse(t *testing.T) {
	const shards = 4
	s, err := NewSharded(Config{ClientNetwork: "140.112.0.0/16"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-route packets per shard.
	perShard := make([][]Packet, shards)
	client := netip.MustParseAddr("140.112.1.1")
	for i := 0; i < 20000; i++ {
		p := Packet{
			Timestamp: time.Duration(i) * time.Microsecond,
			Protocol:  TCP,
			SrcAddr:   client, SrcPort: uint16(20000 + i%40000),
			DstAddr: netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstPort: 80,
			Size:    1500,
		}
		sh := s.ShardOf(p)
		perShard[sh] = append(perShard[sh], p)
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for _, p := range perShard[sh] {
				s.ProcessOnShard(sh, p)
			}
		}(sh)
	}
	wg.Wait()
	if got := s.Stats().OutboundPackets; got != 20000 {
		t.Fatalf("outbound total = %d, want 20000", got)
	}
	if s.MemoryBytes() != shards*512*1024 {
		t.Fatalf("memory = %d", s.MemoryBytes())
	}
}

func TestShardedAggregates(t *testing.T) {
	s, err := NewSharded(Config{ClientNetwork: "140.112.0.0/16"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 2 {
		t.Fatalf("shards = %d", s.Shards())
	}
	if s.ExpiryHorizon() != 20*time.Second {
		t.Fatalf("T_e = %v", s.ExpiryHorizon())
	}
	client := netip.MustParseAddr("140.112.1.1")
	for i := 0; i < 10; i++ {
		s.Process(Packet{
			Protocol: UDP,
			SrcAddr:  client, SrcPort: uint16(30000 + i),
			DstAddr: netip.AddrFrom4([4]byte{8, 8, 8, 8}), DstPort: 53,
			Size: 1_000_000,
		})
	}
	if got := s.UplinkMbps(); got <= 0 {
		t.Fatalf("aggregate uplink = %g", got)
	}
}
