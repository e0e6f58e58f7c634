package p2pbound

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/offload"
	"p2pbound/internal/packet"
)

// offPkt is one differential-test packet in both representations: the
// public Packet the limiters decide, and the internal socket pair plus
// direction the fast path probes (in a deployment the kernel stage
// knows direction from the interface, exactly as the test knows it by
// construction).
type offPkt struct {
	pub  Packet
	pair packet.SocketPair
	dir  packet.Direction
}

// offTraffic generates a deterministic client/remote packet mix:
// tracked flows open outbound and then converse both ways (their
// inbound is legitimate), while attack flows are inbound-only (their
// packets are unmatched and, under fail-closed, always dropped). Every
// flow reappears throughout the trace, so rotation-expired marks get
// re-marked and re-probed.
func offTraffic(n int, step time.Duration) []offPkt {
	const flows = 48
	pkts := make([]offPkt, 0, n)
	ts := time.Duration(0)
	for i := 0; len(pkts) < n; i++ {
		flow := i % flows
		u := uint64(flow)*0x9e3779b97f4a7c15 + 1
		client := [4]byte{140, 112, byte(u >> 8), byte(u)}
		remote := [4]byte{88, byte(u >> 16), byte(u >> 24), byte(u >> 32)}
		cPort := uint16(u>>40)%50000 + 1024
		rPort := uint16(u>>48)%50000 + 1024
		out := packet.SocketPair{
			Proto:   packet.TCP,
			SrcAddr: packet.AddrFrom4(client[0], client[1], client[2], client[3]), SrcPort: cPort,
			DstAddr: packet.AddrFrom4(remote[0], remote[1], remote[2], remote[3]), DstPort: rPort,
		}
		mk := func(pair packet.SocketPair, dir packet.Direction) offPkt {
			var src, dst [4]byte
			s, d := uint32(pair.SrcAddr), uint32(pair.DstAddr)
			src = [4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
			dst = [4]byte{byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)}
			return offPkt{
				pub: Packet{
					Timestamp: ts,
					Protocol:  Protocol(pair.Proto),
					SrcAddr:   netip.AddrFrom4(src), SrcPort: pair.SrcPort,
					DstAddr: netip.AddrFrom4(dst), DstPort: pair.DstPort,
					Size: 512,
				},
				pair: pair,
				dir:  dir,
			}
		}
		switch {
		case flow%3 == 2:
			// Attack flow: inbound with no outbound counterpart.
			in := packet.SocketPair{
				Proto:   packet.TCP,
				SrcAddr: packet.AddrFrom4(remote[0], remote[1], remote[2], 200), SrcPort: rPort,
				DstAddr: out.SrcAddr, DstPort: cPort,
			}
			pkts = append(pkts, mk(in, packet.Inbound))
		case i%5 == 0:
			pkts = append(pkts, mk(out, packet.Outbound))
		default:
			pkts = append(pkts, mk(out.Inverse(), packet.Inbound))
		}
		ts += step
	}
	return pkts[:n]
}

// runSplit decides pkts through the two-tier split: a FastPath probe
// first; hits pass with no slow-path involvement, misses travel the
// bounded ring to the slow limiter, whose verdict is authoritative.
// The slow limiter republishes the map every publishEvery packets.
func runSplit(t *testing.T, slow *Limiter, om *offload.Map, pkts []offPkt, publishEvery int) ([]Decision, *offload.FastPath) {
	t.Helper()
	fp, err := offload.NewFastPath(om)
	if err != nil {
		t.Fatal(err)
	}
	ring := offload.NewMissRing[Packet](256)
	decisions := make([]Decision, 0, len(pkts))
	escalated := make([]Packet, 0, 8)
	for i := range pkts {
		if fp.Probe(pkts[i].pair, pkts[i].dir) == offload.Hit {
			decisions = append(decisions, Pass)
		} else {
			if !ring.TryPush(pkts[i].pub) {
				t.Fatal("miss ring overflow in a drain-per-packet test")
			}
			escalated = ring.Drain(escalated[:0])
			for _, ep := range escalated {
				decisions = append(decisions, slow.Process(ep))
			}
		}
		if (i+1)%publishEvery == 0 {
			if err := slow.PublishOffload(om); err != nil {
				t.Fatal(err)
			}
		}
	}
	return decisions, fp
}

func offConfig(rotate time.Duration) Config {
	return Config{
		ClientNetwork: "140.112.0.0/16",
		Vectors:       4,
		VectorBits:    14,
		HashFunctions: 3,
		RotateEvery:   rotate,
		Seed:          11,
	}
}

// TestOffloadDifferentialExact: with the map republished after every
// packet and both limiters fail-closed (P_d pinned to 1, so decisions
// are deterministic), the two-tier split's per-packet decisions are
// bit-identical to a monolithic limiter's. This is the strong form of
// the escalation contract: a Hit passes exactly what the monolith
// would pass, an escalation reproduces exactly what the monolith
// would decide, and the split slow path's filter state never diverges
// (a Hit outbound packet's re-mark would have been a no-op).
func TestOffloadDifferentialExact(t *testing.T) {
	cfg := offConfig(time.Hour) // no rotations; staleness is zero by republish-per-packet
	pkts := offTraffic(6000, time.Millisecond)

	mono, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetFailClosed(true)
	slow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetFailClosed(true)
	om, err := slow.NewOffloadMap()
	if err != nil {
		t.Fatal(err)
	}

	monoDec := make([]Decision, 0, len(pkts))
	for i := range pkts {
		monoDec = append(monoDec, mono.Process(pkts[i].pub))
	}
	splitDec, fp := runSplit(t, slow, om, pkts, 1)

	if len(splitDec) != len(monoDec) {
		t.Fatalf("decision count %d != %d", len(splitDec), len(monoDec))
	}
	for i := range monoDec {
		if splitDec[i] != monoDec[i] {
			t.Fatalf("packet %d (%v %v): split %v != monolith %v",
				i, pkts[i].dir, pkts[i].pair, splitDec[i], monoDec[i])
		}
	}
	if fp.Hits() == 0 || fp.Escalations() == 0 {
		t.Fatalf("degenerate split: hits=%d escalations=%d", fp.Hits(), fp.Escalations())
	}
	t.Logf("identical decisions over %d packets: %d fast-path hits, %d escalations",
		len(pkts), fp.Hits(), fp.Escalations())
}

// TestOffloadDifferentialZeroFalseNegatives: with a deliberately stale
// map (republished only every 64 packets) and rotations happening
// mid-traffic, the split may pass packets the monolith drops (bounded
// staleness is fail-open by design) but must never drop a packet the
// monolith passes: the fast path itself never drops, and every miss
// escalates to a slow path whose mark state is identical and whose
// rotation clock can only lag — both fail-open directions.
func TestOffloadDifferentialZeroFalseNegatives(t *testing.T) {
	cfg := offConfig(100 * time.Millisecond) // ~30 rotations over the trace
	pkts := offTraffic(12000, 250*time.Microsecond)

	mono, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetFailClosed(true)
	slow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetFailClosed(true)
	om, err := slow.NewOffloadMap()
	if err != nil {
		t.Fatal(err)
	}

	monoDec := make([]Decision, 0, len(pkts))
	for i := range pkts {
		monoDec = append(monoDec, mono.Process(pkts[i].pub))
	}
	splitDec, fp := runSplit(t, slow, om, pkts, 64)

	falseNegatives := 0
	monoDrops := 0
	for i := range monoDec {
		if monoDec[i] == Drop {
			monoDrops++
		}
		if splitDec[i] == Drop && monoDec[i] == Pass {
			falseNegatives++
		}
	}
	if falseNegatives != 0 {
		t.Fatalf("%d packets dropped by the split but passed by the monolith", falseNegatives)
	}
	if monoDrops == 0 {
		t.Fatal("degenerate trace: the monolith dropped nothing")
	}
	if ms := mono.Stats(); ms.Rotations == 0 {
		t.Fatal("degenerate trace: no rotations")
	}
	if fp.Hits() == 0 || fp.Escalations() == 0 {
		t.Fatalf("degenerate split: hits=%d escalations=%d", fp.Hits(), fp.Escalations())
	}
	t.Logf("%d packets, %d monolith drops, 0 false negatives (hits=%d escalations=%d, slow rotations=%d)",
		len(pkts), monoDrops, fp.Hits(), fp.Escalations(), slow.Stats().Rotations)
}

// TestTenantOffloadRouting: a TenantManager export routes probes to
// the right tenant section by subscriber prefix, answers Hit only for
// flows that tenant actually tracks, and kills a section when its
// tenant is evicted.
func TestTenantOffloadRouting(t *testing.T) {
	mgr, err := NewTenantManager(TenantManagerConfig{
		Tenant: Config{
			ClientNetwork: "0.0.0.0/0",
			Vectors:       3, VectorBits: 12, HashFunctions: 3,
			RotateEvery: time.Hour,
		},
		PrefixBits: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddTenants([]TenantConfig{
		{ID: "campus", Network: "140.112.0.0/16"},
		{ID: "dorm", Network: "10.99.0.0/16"},
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(src, dst [4]byte, sp, dp uint16) Packet {
		return Packet{
			Protocol: 6,
			SrcAddr:  netip.AddrFrom4(src), SrcPort: sp,
			DstAddr: netip.AddrFrom4(dst), DstPort: dp,
			Size: 256,
		}
	}
	campusOut := mk([4]byte{140, 112, 1, 1}, [4]byte{88, 1, 1, 1}, 2000, 80)
	dormOut := mk([4]byte{10, 99, 2, 2}, [4]byte{88, 2, 2, 2}, 3000, 80)
	mgr.Process(campusOut)
	mgr.Process(dormOut)

	to, err := mgr.NewOffload()
	if err != nil {
		t.Fatal(err)
	}
	if err := to.Publish(); err != nil {
		t.Fatal(err)
	}
	fp, err := offload.NewFastPath(to.Map())
	if err != nil {
		t.Fatal(err)
	}

	campusPair := packet.SocketPair{Proto: packet.TCP,
		SrcAddr: packet.AddrFrom4(140, 112, 1, 1), SrcPort: 2000,
		DstAddr: packet.AddrFrom4(88, 1, 1, 1), DstPort: 80}
	dormPair := packet.SocketPair{Proto: packet.TCP,
		SrcAddr: packet.AddrFrom4(10, 99, 2, 2), SrcPort: 3000,
		DstAddr: packet.AddrFrom4(88, 2, 2, 2), DstPort: 80}

	cSec := fp.SectionFor(campusPair)
	dSec := fp.SectionFor(dormPair)
	if cSec < 0 || dSec < 0 || cSec == dSec {
		t.Fatalf("routing collapsed: campus=%d dorm=%d", cSec, dSec)
	}
	if key, idh := to.Map().SectionKey(cSec); key != 140<<8|112 || idh == 0 {
		t.Fatalf("campus section key %d idhash %#x", key, idh)
	}
	// Each tenant's marked flow hits in its own section and escalates in
	// the other's (independent per-tenant filters).
	if v := fp.ProbeSection(cSec, campusPair, packet.Outbound); v != offload.Hit {
		t.Fatalf("campus flow in campus section: %v", v)
	}
	if v := fp.ProbeSection(dSec, campusPair, packet.Outbound); v != offload.Escalate {
		t.Fatalf("campus flow in dorm section: %v", v)
	}
	if v := fp.ProbeSection(cSec, campusPair.Inverse(), packet.Inbound); v != offload.Hit {
		t.Fatalf("campus reply inbound: %v", v)
	}
	// Unknown prefix routes nowhere.
	stray := packet.SocketPair{Proto: packet.TCP,
		SrcAddr: packet.AddrFrom4(44, 1, 1, 1), SrcPort: 1,
		DstAddr: packet.AddrFrom4(45, 1, 1, 1), DstPort: 2}
	if s := fp.SectionFor(stray); s != -1 {
		t.Fatalf("stray pair routed to section %d", s)
	}

	// Evicting everything idle kills the sections on the next publish.
	mgr.EvictIdle(0)
	if err := to.Publish(); err != nil {
		t.Fatal(err)
	}
	if v := fp.ProbeSection(cSec, campusPair, packet.Outbound); v != offload.Escalate {
		t.Fatalf("evicted tenant's section still answers %v", v)
	}
}

// TestPipelineOffloadMap: a Pipeline with OffloadEvery publishes every
// shard's filter into the shared map; after Close (which forces a
// final per-shard publish) a probe routed by ShardOf order hits for a
// tracked flow.
func TestPipelineOffloadMap(t *testing.T) {
	cfg := offConfig(time.Hour)
	p, err := NewPipeline(cfg, PipelineConfig{Shards: 2, OffloadEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	om := p.OffloadMap()
	if om == nil {
		t.Fatal("OffloadEvery set but OffloadMap is nil")
	}
	if om.Sections() != 2 {
		t.Fatalf("sections=%d, want one per shard", om.Sections())
	}
	pkts := offTraffic(2000, time.Millisecond)
	for i := range pkts {
		p.Submit(pkts[i].pub)
	}
	p.Drain()
	p.Close()

	fp, err := offload.NewFastPath(om)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range pkts {
		if pkts[i].dir != packet.Outbound {
			continue
		}
		sec := int(uint(p.sharded.ShardOf(pkts[i].pub)))
		if fp.ProbeSection(sec, pkts[i].pair, packet.Outbound) == offload.Hit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no tracked flow hit in the pipeline's offload map")
	}
}

// requireSectionExact fails unless section sec of a serialized flat map
// holds f's logical contents word for word. It reads the image through
// the documented layout (DESIGN.md §17.1): the header's words-per-vector
// field, the directory entry's section offset, and the four-word section
// header before the vectors.
func requireSectionExact(t *testing.T, img []byte, sec int, f *core.Filter, what string) {
	t.Helper()
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(img[8*i:]) }
	const headerWords, dirEntryWords, sectionHeaderWords = 8, 3, 4
	wpv := int(word(3))
	base := int(word(headerWords+sec*dirEntryWords+2)) + sectionHeaderWords
	var want [bitvec.DeltaBlockWords]uint64
	for v := 0; v < f.VectorCount(); v++ {
		vec := f.Vector(v)
		for b := 0; b < vec.DeltaBlocks(); b++ {
			if err := vec.BlockWords(uint32(b), &want); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < bitvec.DeltaBlockWords && b*bitvec.DeltaBlockWords+j < wpv; j++ {
				i := v*wpv + b*bitvec.DeltaBlockWords + j
				if got := word(base + i); got != want[j] {
					t.Fatalf("%s: section %d vector %d word %d: map %#x, filter %#x",
						what, sec, v, i-v*wpv, got, want[j])
				}
			}
		}
	}
}

func mapImage(t *testing.T, om *offload.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := om.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOffloadPublishExactFrontEnds publishes through the two front ends
// that swap whole filters under a live map — Limiter.RestoreState and
// a TenantManager rehydrating tenants onto pooled filter shells, reset
// for reuse — and requires every live section to equal its filter after
// every publish.
// internal/offload's TestPublishExact covers the same events, and the
// rest, on bare filters.
func TestOffloadPublishExactFrontEnds(t *testing.T) {
	pkts := offTraffic(6000, 2*time.Millisecond) // 12 s of 1 s rotations

	t.Run("limiter-restore", func(t *testing.T) {
		lim, err := New(offConfig(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		om, err := lim.NewOffloadMap()
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		for i := range pkts {
			lim.Process(pkts[i].pub)
			switch i {
			case 1500:
				if err := lim.SaveState(&snap); err != nil {
					t.Fatal(err)
				}
			case 3000, 4500:
				// Rewind to the older snapshot: a different filter, with
				// different contents, behind the same map section.
				if err := lim.RestoreState(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatal(err)
				}
			}
			if i%37 == 0 || i == 3000 || i == 4500 {
				if err := lim.PublishOffload(om); err != nil {
					t.Fatal(err)
				}
				requireSectionExact(t, mapImage(t, om), 0, lim.filter.Load(), "packet "+strconv.Itoa(i))
			}
		}
	})

	t.Run("tenant-rehydrate", func(t *testing.T) {
		mgr, err := NewTenantManager(TenantManagerConfig{
			Tenant: Config{
				ClientNetwork: "0.0.0.0/0",
				Vectors:       4, VectorBits: 12, HashFunctions: 3,
				RotateEvery: time.Second,
			},
			PrefixBits: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcs := make([]TenantConfig, 256)
		for i := range tcs {
			tcs[i] = TenantConfig{ID: "sub" + strconv.Itoa(i), Network: "140.112." + strconv.Itoa(i) + ".0/24"}
		}
		if err := mgr.AddTenants(tcs); err != nil {
			t.Fatal(err)
		}
		to, err := mgr.NewOffload()
		if err != nil {
			t.Fatal(err)
		}
		rehydrated := 0
		for i := range pkts {
			mgr.Process(pkts[i].pub)
			if i%800 == 799 {
				// Every filter goes back to its shard's shell pool; the
				// next packets rehydrate their tenants onto pooled shells,
				// in traffic order rather than the order they were pooled.
				rehydrated += mgr.EvictIdle(0)
			}
			if i%41 != 0 {
				continue
			}
			if err := to.Publish(); err != nil {
				t.Fatal(err)
			}
			img := mapImage(t, to.Map())
			for sec, tn := range to.byTenant {
				live := to.Map().Section(sec).Live()
				if live != tn.hydrated {
					t.Fatalf("packet %d: tenant %s hydrated=%v, section live=%v", i, tn.id, tn.hydrated, live)
				}
				if tn.hydrated {
					requireSectionExact(t, img, sec, tn.lim.filter.Load(), "packet "+strconv.Itoa(i))
				}
			}
		}
		if rehydrated == 0 {
			t.Fatal("no tenant was evicted; the rehydrate path went untested")
		}
	})
}
