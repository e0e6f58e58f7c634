package analyzer

import (
	"sort"
	"time"

	"p2pbound/internal/l7"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
)

// Table2Row is one row of the paper's Table 2: the share of connections
// and of bytes ("utilization") attributed to a protocol group.
type Table2Row struct {
	Group       string
	Connections float64
	Utilization float64
}

// Summary bundles the aggregate trace statistics reported in Section 3.3.
type Summary struct {
	Connections     int
	TCPConnFrac     float64 // fraction of connections that are TCP
	UDPConnFrac     float64
	TCPByteFrac     float64 // fraction of bytes carried by TCP
	UploadByteFrac  float64 // fraction of bytes that are outbound
	MeanMbps        float64 // average throughput over the trace span
	UploadOnInbound float64 // fraction of outbound bytes on inbound-initiated connections
	Span            time.Duration
}

// Report computes every Section 3.3 statistic over all connections seen.
type Report struct {
	Summary   Summary
	Table2    []Table2Row
	Lifetimes stats.CDF // seconds, closed TCP connections only (Figure 4)
	DelayCDF  stats.CDF // seconds, out-in packet delays (Figure 5)
	// TCPPorts and UDPPorts hold the port samples per class for the
	// Figure 2 and Figure 3 CDFs.
	TCPPorts [l7.NumClasses]stats.CDF
	UDPPorts [l7.NumClasses]stats.CDF
}

// BuildReport assembles the full measurement report from the
// connection table. FinalizePortIdent is applied to every connection
// implicitly.
func (a *Analyzer) BuildReport() *Report {
	total := newAccumulator()
	for _, c := range a.conns {
		a.identifyByPort(c)
		total.fold(c)
	}

	r := &Report{
		Lifetimes: total.lifetimes,
		TCPPorts:  total.tcpPorts,
		UDPPorts:  total.udpPorts,
	}
	for _, d := range a.delays {
		r.DelayCDF.AddDuration(d)
	}

	r.Summary = Summary{
		Connections: total.conns,
		Span:        total.lastSeen - total.firstSeen,
	}
	if total.conns > 0 {
		r.Summary.TCPConnFrac = float64(total.tcpConns) / float64(total.conns)
		r.Summary.UDPConnFrac = float64(total.udpConns) / float64(total.conns)
	}
	if total.allBytes > 0 {
		r.Summary.TCPByteFrac = float64(total.tcpBytes) / float64(total.allBytes)
		r.Summary.UploadByteFrac = float64(total.upBytes) / float64(total.allBytes)
	}
	if total.upBytes > 0 {
		r.Summary.UploadOnInbound = float64(total.upOnInbound) / float64(total.upBytes)
	}
	if r.Summary.Span > 0 {
		r.Summary.MeanMbps = float64(total.allBytes*8) / r.Summary.Span.Seconds() / 1e6
	}

	// Table 2 rows in the paper's order, with any extra groups appended.
	order := []string{"HTTP", "bittorrent", "gnutella", "edonkey", "UNKNOWN", "Others"}
	seen := make(map[string]bool, len(order))
	for _, g := range order {
		seen[g] = true
	}
	var extra []string
	for g := range total.groupConns {
		if !seen[g] {
			extra = append(extra, g)
		}
	}
	sort.Strings(extra)
	for _, g := range append(order, extra...) {
		if total.groupConns[g] == 0 && total.groupBytes[g] == 0 {
			continue
		}
		row := Table2Row{Group: g}
		if total.conns > 0 {
			row.Connections = float64(total.groupConns[g]) / float64(total.conns)
		}
		if total.allBytes > 0 {
			row.Utilization = float64(total.groupBytes[g]) / float64(total.allBytes)
		}
		r.Table2 = append(r.Table2, row)
	}
	return r
}

// identifyByPort applies the second identification stage — matching
// well-known port numbers — to a connection the payload stage left
// unidentified. Idempotent.
func (a *Analyzer) identifyByPort(c *Connection) {
	if c.identified {
		return
	}
	switch c.Pair.Proto {
	case packet.TCP:
		if app := a.lib.MatchPort(packet.TCP, c.Pair.DstPort); app != l7.Unknown {
			c.App = app
			c.Method = IdentPort
			c.identified = true
		}
	case packet.UDP:
		app := a.lib.MatchPort(packet.UDP, c.Pair.DstPort)
		if app == l7.Unknown {
			app = a.lib.MatchPort(packet.UDP, c.Pair.SrcPort)
		}
		if app != l7.Unknown {
			c.App = app
			c.Method = IdentPort
			c.identified = true
		}
	}
}
