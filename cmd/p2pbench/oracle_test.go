package main

import (
	"testing"
	"time"

	"p2pbound"
	"p2pbound/internal/packet"
)

// TestOracleCatchesInjectedFailures feeds the verification code a verdict
// stream with one drop of a solicited packet and one false match injected,
// and checks that it reports both, and that the same stream without them
// passes: the correctness check can fail.
func TestOracleCatchesInjectedFailures(t *testing.T) {
	out := packet.SocketPair{
		Proto:   packet.TCP,
		SrcAddr: packet.AddrFrom4(140, 112, 0, 9), SrcPort: 40000,
		DstAddr: packet.AddrFrom4(8, 8, 4, 4), DstPort: 443,
	}
	stranger := packet.SocketPair{
		Proto:   packet.TCP,
		SrcAddr: packet.AddrFrom4(9, 9, 9, 9), SrcPort: 6881,
		DstAddr: packet.AddrFrom4(140, 112, 0, 9), DstPort: 51413,
	}
	type step struct {
		at      time.Duration
		pair    packet.SocketPair
		dir     packet.Direction
		v       p2pbound.Decision
		matched bool
	}
	stream := func(inject bool) []step {
		reply, strangerMatched := p2pbound.Pass, false
		if inject {
			reply, strangerMatched = p2pbound.Drop, true
		}
		return []step{
			{0, out, packet.Outbound, p2pbound.Pass, false},
			{time.Second, out.Inverse(), packet.Inbound, reply, !inject},
			{2 * time.Second, stranger, packet.Inbound, p2pbound.Pass, strangerMatched},
			{3 * time.Second, out.Inverse(), packet.Inbound, p2pbound.Pass, true},
			// Past T_e the reply is unsolicited again, so dropping it is
			// no failure.
			{time.Minute, out.Inverse(), packet.Inbound, p2pbound.Drop, false},
		}
	}
	for _, inject := range []bool{false, true} {
		o := newOracle(paperVectors*paperDeltaT, paperDeltaT)
		steps := stream(inject)
		for _, s := range steps {
			p := packet.Packet{TS: s.at, Pair: s.pair, Dir: s.dir, Len: 60}
			o.observe(&p, s.v, s.matched)
		}
		c := o.counts
		correct, failed, frac := judge(failures{FNPkts: c.FNPkts}, int64(len(steps)))
		if !inject {
			if c.FNPkts != 0 || c.fpr() != 0 || !correct || failed != 0 || frac != 0 {
				t.Errorf("clean stream: fn_pkts=%d fpr=%g correct=%v failed=%d fail_frac=%g", c.FNPkts, c.fpr(), correct, failed, frac)
			}
			continue
		}
		if c.FNPkts != 1 {
			t.Errorf("injected drop: fn_pkts = %d, want 1", c.FNPkts)
		}
		if c.FalseMatch != 1 || c.fpr() <= 0 {
			t.Errorf("injected false match: false_match = %d, fpr = %g, want 1 and > 0", c.FalseMatch, c.fpr())
		}
		if correct || frac <= 0 {
			t.Errorf("injected failures judged correct=%v fail_frac=%g", correct, frac)
		}
	}
}
