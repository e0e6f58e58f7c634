package main

import (
	"time"

	"p2pbound"
	"p2pbound/internal/naive"
	"p2pbound/internal/packet"
)

// oracle checks a verdict stream against the exact per-socket-pair timer
// table of internal/naive, the paper's §4.2 reference, run at two
// timeouts. With T_e − Δt it holds live state for every flow the bitmap
// filter must still admit: an inbound packet dropped while it does is a
// false negative, which the paper rules out. With T_e it holds state for
// every flow the filter may admit: an inbound packet the filter matched
// while it holds none is a false positive.
type oracle struct {
	live   *naive.Filter // timeout T_e − Δt
	exact  *naive.Filter // timeout T_e
	counts oracleCounts
}

// oracleCounts are an oracle's tallies over the verdicts it observed.
type oracleCounts struct {
	Packets int64 `json:"packets"`
	Passed  int64 `json:"passed"`
	Dropped int64 `json:"dropped"`
	Inbound int64 `json:"inbound"`
	// Unsolicited counts inbound packets for which the T_e oracle holds no
	// live state; FalseMatch the ones among them the filter matched.
	Unsolicited int64 `json:"unsolicited"`
	FalseMatch  int64 `json:"false_match"`
	// FNPkts counts inbound packets dropped while the T_e − Δt oracle
	// holds live state for their flow.
	FNPkts int64 `json:"fn_pkts"`
}

// fpr is the share of unsolicited inbound packets the filter matched.
func (c oracleCounts) fpr() float64 {
	if c.Unsolicited == 0 {
		return 0
	}
	return float64(c.FalseMatch) / float64(c.Unsolicited)
}

// newOracle builds an oracle for a filter with expiry horizon te and
// rotation period dt.
func newOracle(te, dt time.Duration) *oracle {
	live, err := naive.New(te-dt, false, 0)
	if err != nil {
		panic("p2pbench: oracle timeout: " + err.Error())
	}
	exact, err := naive.New(te, false, 0)
	if err != nil {
		panic("p2pbench: oracle timeout: " + err.Error())
	}
	return &oracle{live: live, exact: exact}
}

// observe checks one verdict. Packets must arrive in timestamp order;
// matched reports whether the deciding filter found the packet's inverse
// socket pair marked (the delta in its InboundMatched, or a fast-path
// Hit).
func (o *oracle) observe(p *packet.Packet, v p2pbound.Decision, matched bool) {
	o.live.Advance(p.TS)
	o.exact.Advance(p.TS)
	c := &o.counts
	c.Packets++
	if v == p2pbound.Drop {
		c.Dropped++
	} else {
		c.Passed++
	}
	if p.Dir == packet.Outbound {
		o.live.Process(p, 0)
		o.exact.Process(p, 0)
		return
	}
	c.Inbound++
	if !o.exact.Contains(p.Pair, p.TS) {
		c.Unsolicited++
		if matched {
			c.FalseMatch++
		}
	}
	if v == p2pbound.Drop && o.live.Contains(p.Pair, p.TS) {
		c.FNPkts++
	}
}

// matchTracker turns a limiter's cumulative InboundMatched counter into a
// per-packet matched flag.
type matchTracker struct{ last int64 }

func (m *matchTracker) matched(now int64) bool {
	d := now > m.last
	m.last = now
	return d
}
