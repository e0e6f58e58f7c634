package analyzer

import (
	"time"

	"p2pbound/internal/l7"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
)

// accumulator carries every aggregate a Report needs; BuildReport folds
// each connection into it.
type accumulator struct {
	conns              int
	tcpConns, udpConns int
	tcpBytes, allBytes int64
	upBytes, downBytes int64
	upOnInbound        int64
	groupConns         map[string]int
	groupBytes         map[string]int64
	firstSeen          time.Duration
	lastSeen           time.Duration
	seenAny            bool
	lifetimes          stats.CDF
	tcpPorts           [l7.NumClasses]stats.CDF
	udpPorts           [l7.NumClasses]stats.CDF
}

func newAccumulator() *accumulator {
	return &accumulator{
		groupConns: make(map[string]int),
		groupBytes: make(map[string]int64),
	}
}

// fold absorbs one finalized connection. The connection must already have
// gone through port identification (identifyByPort).
func (acc *accumulator) fold(c *Connection) {
	acc.conns++
	total := c.BytesOut + c.BytesIn
	acc.allBytes += total
	acc.upBytes += c.BytesOut
	acc.downBytes += c.BytesIn
	if c.Initiator == packet.Inbound {
		acc.upOnInbound += c.BytesOut
	}
	switch c.Pair.Proto {
	case packet.TCP:
		acc.tcpConns++
		acc.tcpBytes += total
	case packet.UDP:
		acc.udpConns++
	}

	group := c.App.Table2Group()
	if !c.identified {
		group = l7.Unknown.Table2Group()
	}
	acc.groupConns[group]++
	acc.groupBytes[group] += total

	if !acc.seenAny || c.FirstSeen < acc.firstSeen {
		acc.firstSeen = c.FirstSeen
	}
	if c.LastSeen > acc.lastSeen {
		acc.lastSeen = c.LastSeen
	}
	acc.seenAny = true

	if lt, ok := c.Lifetime(); ok {
		acc.lifetimes.AddDuration(lt)
	}

	class := l7.ClassOf(c.App)
	if !c.identified {
		class = l7.ClassUnknown
	}
	switch c.Pair.Proto {
	case packet.TCP:
		// Only the service provider's port (destination of the SYN) is
		// counted; TCP source ports are randomly generated.
		acc.tcpPorts[l7.ClassAll].Add(float64(c.Pair.DstPort))
		acc.tcpPorts[class].Add(float64(c.Pair.DstPort))
	case packet.UDP:
		// UDP has no connection-direction signal, so both source and
		// destination ports are counted.
		for _, p := range []uint16{c.Pair.SrcPort, c.Pair.DstPort} {
			acc.udpPorts[l7.ClassAll].Add(float64(p))
			acc.udpPorts[class].Add(float64(p))
		}
	}
}
