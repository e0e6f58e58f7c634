// Package analyzer implements the customized traffic analyzer of Section
// 3.2: it classifies packets into connections, identifies the application
// of each connection (payload patterns first, well-known ports second,
// plus the two file-exchange strategies: P2P service-endpoint propagation
// and FTP data-connection tracking), and measures the fundamental
// connection properties used in Section 3.3 — direction, per-direction
// packets and bytes, lifetime, and out-in packet delay.
package analyzer

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"p2pbound/internal/l7"
	"p2pbound/internal/packet"
)

// IdentMethod records how a connection's application was determined.
type IdentMethod int

// Identification methods, in the order the analyzer attempts them.
const (
	IdentNone IdentMethod = iota
	IdentPattern
	IdentPort
	IdentPropagated // strategy 1: future connections to an identified P2P B:y
	IdentFTPData    // strategy 2: data connection announced on an FTP control channel
)

// String names the method.
func (m IdentMethod) String() string {
	switch m {
	case IdentNone:
		return "none"
	case IdentPattern:
		return "pattern"
	case IdentPort:
		return "port"
	case IdentPropagated:
		return "propagated"
	case IdentFTPData:
		return "ftp-data"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Connection aggregates the per-connection measurements of Section 3.2.
// Pair is oriented from the connection initiator to the responder.
type Connection struct {
	Pair      packet.SocketPair
	App       l7.App
	Method    IdentMethod
	Initiator packet.Direction // Outbound: initiated by an inner client
	SawSYN    bool
	FirstSeen time.Duration
	LastSeen  time.Duration
	ClosedAt  time.Duration // time of the first valid FIN or RST
	Closed    bool

	// Byte and packet counts relative to the client network: "out" is
	// upload (sent by the client network), "in" is download.
	PktsOut, PktsIn   int64
	BytesOut, BytesIn int64

	prefix     []byte // concatenated first TCP data payloads
	prefixPkts int
	identified bool
	isFTPCtl   bool
}

// Lifetime returns the SYN-to-close duration for closed TCP connections
// and false otherwise, matching the Figure 4 methodology.
func (c *Connection) Lifetime() (time.Duration, bool) {
	if c.Pair.Proto != packet.TCP || !c.SawSYN || !c.Closed {
		return 0, false
	}
	return c.ClosedAt - c.FirstSeen, true
}

// serviceKey identifies a service endpoint B:y (strategy 1) or an expected
// FTP data endpoint (strategy 2).
type serviceKey struct {
	proto packet.Proto
	addr  packet.Addr
	port  uint16
}

// Config parameterizes the analyzer.
type Config struct {
	// ClientNet is the monitored client network of Figure 1.
	ClientNet packet.Network
	// MaxPrefixPackets caps how many leading TCP data packets are
	// concatenated for pattern matching; the paper uses at most four.
	MaxPrefixPackets int
	// MaxPrefixBytes caps the concatenated stream prefix size.
	MaxPrefixBytes int
	// DelayExpiry is the expiry timer T_e of the out-in delay
	// measurement; the paper uses a deliberately large 600 s so the
	// port-reuse peaks of Figure 5 stay visible.
	DelayExpiry time.Duration
}

// DefaultConfig returns the paper's measurement settings for the given
// client network.
func DefaultConfig(clientNet packet.Network) Config {
	return Config{
		ClientNet:        clientNet,
		MaxPrefixPackets: 4,
		MaxPrefixBytes:   512,
		DelayExpiry:      600 * time.Second,
	}
}

// Analyzer consumes a packet stream and accumulates connection state.
type Analyzer struct {
	cfg Config
	lib *l7.Library

	conns map[[packet.KeySize]byte]*Connection

	// Strategy 1: once a connection to B:y is identified as P2P, all
	// future connections to B:y are the same application.
	p2pServices map[serviceKey]l7.App
	// Strategy 2: endpoints announced in FTP control payloads; value is
	// the announcement time (entries are valid for a short horizon).
	ftpExpected map[serviceKey]time.Duration

	// Out-in delay measurement state (Section 3.3): last outbound
	// timestamp per socket pair.
	lastOut map[[packet.KeySize]byte]time.Duration
	delays  []time.Duration
}

// ftpPassiveRe extracts the (h1,h2,h3,h4,p1,p2) endpoint from "227
// Entering Passive Mode" replies and from client PORT commands.
var ftpPassiveRe = regexp.MustCompile(`\((\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3})\)|PORT (\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3})`)

// New builds an analyzer for cfg.
func New(cfg Config) (*Analyzer, error) {
	if cfg.MaxPrefixPackets <= 0 {
		return nil, fmt.Errorf("analyzer: MaxPrefixPackets must be positive, got %d", cfg.MaxPrefixPackets)
	}
	if cfg.MaxPrefixBytes <= 0 {
		return nil, fmt.Errorf("analyzer: MaxPrefixBytes must be positive, got %d", cfg.MaxPrefixBytes)
	}
	if cfg.DelayExpiry <= 0 {
		return nil, fmt.Errorf("analyzer: DelayExpiry must be positive, got %v", cfg.DelayExpiry)
	}
	return &Analyzer{
		cfg:         cfg,
		lib:         l7.NewLibrary(),
		conns:       make(map[[packet.KeySize]byte]*Connection, 4096),
		p2pServices: make(map[serviceKey]l7.App),
		ftpExpected: make(map[serviceKey]time.Duration),
		lastOut:     make(map[[packet.KeySize]byte]time.Duration, 4096),
	}, nil
}

// Feed processes one packet. Packets must arrive in timestamp order.
func (a *Analyzer) Feed(pkt *packet.Packet) {
	conn := a.connectionFor(pkt)
	a.account(conn, pkt)
	a.trackDelay(pkt)
	if conn.identified {
		if conn.isFTPCtl {
			a.parseFTPControl(conn, pkt)
		}
		return
	}
	a.identify(conn, pkt)
}

// Connections returns every tracked connection. The returned slice is
// freshly allocated but shares the Connection values.
func (a *Analyzer) Connections() []*Connection {
	out := make([]*Connection, 0, len(a.conns))
	for _, c := range a.conns {
		out = append(out, c)
	}
	return out
}

// Delays returns the recorded out-in packet delays.
func (a *Analyzer) Delays() []time.Duration { return a.delays }

// connectionFor finds or creates the connection a packet belongs to.
// Connections are stored under the initiator-oriented key; lookups try
// both orientations.
func (a *Analyzer) connectionFor(pkt *packet.Packet) *Connection {
	key := pkt.Pair.Key()
	if c, ok := a.conns[key]; ok {
		return c
	}
	if c, ok := a.conns[pkt.Pair.Inverse().Key()]; ok {
		return c
	}
	c := &Connection{
		Pair:      pkt.Pair,
		Initiator: pkt.Dir,
		FirstSeen: pkt.TS,
		SawSYN:    pkt.Pair.Proto == packet.TCP && pkt.Flags.Has(packet.SYN) && !pkt.Flags.Has(packet.ACK),
	}
	a.conns[key] = c

	// Strategy 1: a brand-new connection to an already-identified P2P
	// service endpoint inherits the application.
	if app, ok := a.p2pServices[serviceKey{pkt.Pair.Proto, pkt.Pair.DstAddr, pkt.Pair.DstPort}]; ok {
		c.App = app
		c.Method = IdentPropagated
		c.identified = true
		return c
	}
	// Strategy 2: a connection to an endpoint announced on an FTP
	// control channel is the FTP data connection.
	if ts, ok := a.ftpExpected[serviceKey{pkt.Pair.Proto, pkt.Pair.DstAddr, pkt.Pair.DstPort}]; ok {
		if pkt.TS-ts <= 2*time.Minute {
			c.App = l7.FTP
			c.Method = IdentFTPData
			c.identified = true
		}
		delete(a.ftpExpected, serviceKey{pkt.Pair.Proto, pkt.Pair.DstAddr, pkt.Pair.DstPort})
	}
	return c
}

// account updates the per-connection counters and close tracking.
func (a *Analyzer) account(c *Connection, pkt *packet.Packet) {
	c.LastSeen = pkt.TS
	if pkt.Dir == packet.Outbound {
		c.PktsOut++
		c.BytesOut += int64(pkt.Len)
	} else {
		c.PktsIn++
		c.BytesIn += int64(pkt.Len)
	}
	if pkt.Pair.Proto == packet.TCP && !c.Closed &&
		(pkt.Flags.Has(packet.FIN) || pkt.Flags.Has(packet.RST)) {
		c.Closed = true
		c.ClosedAt = pkt.TS
	}
}

// identify runs the payload identification pipeline on an unidentified
// connection.
func (a *Analyzer) identify(c *Connection, pkt *packet.Packet) {
	switch pkt.Pair.Proto {
	case packet.UDP:
		// The payload of each UDP packet is always examined.
		if len(pkt.Payload) == 0 {
			return
		}
		if app := a.lib.MatchPayload(pkt.Payload); app != l7.Unknown {
			a.setApp(c, app, IdentPattern)
		}
	case packet.TCP:
		// Only connections with an explicit TCP-SYN are examined, and
		// only the first MaxPrefixPackets data packets are concatenated.
		if !c.SawSYN || len(pkt.Payload) == 0 || c.prefixPkts >= a.cfg.MaxPrefixPackets {
			return
		}
		c.prefixPkts++
		room := a.cfg.MaxPrefixBytes - len(c.prefix)
		if room > 0 {
			chunk := pkt.Payload
			if len(chunk) > room {
				chunk = chunk[:room]
			}
			c.prefix = append(c.prefix, chunk...)
		}
		if app := a.lib.MatchPayload(c.prefix); app != l7.Unknown {
			a.setApp(c, app, IdentPattern)
			if app == l7.FTP {
				c.isFTPCtl = true
				a.parseFTPControl(c, pkt)
			}
			c.prefix = nil // identified; stop buffering
		}
	}
}

// setApp records an identification and feeds strategy 1's endpoint table.
func (a *Analyzer) setApp(c *Connection, app l7.App, m IdentMethod) {
	c.App = app
	c.Method = m
	c.identified = true
	if app.IsP2P() {
		// The service provider B:y is the destination of the initiating
		// packet.
		a.p2pServices[serviceKey{c.Pair.Proto, c.Pair.DstAddr, c.Pair.DstPort}] = app
	}
}

// parseFTPControl scans an FTP control payload for announced data-channel
// endpoints (PASV 227 replies and PORT commands) and registers them so the
// matching data connection is identified as FTP (strategy 2).
func (a *Analyzer) parseFTPControl(c *Connection, pkt *packet.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	for _, m := range ftpPassiveRe.FindAllSubmatch(pkt.Payload, -1) {
		fields := m[1:7]
		if m[7] != nil {
			fields = m[7:13]
		}
		var nums [6]int
		ok := true
		for i, f := range fields {
			v, err := strconv.Atoi(string(f))
			if err != nil || v > 255 {
				ok = false
				break
			}
			nums[i] = v
		}
		if !ok {
			continue
		}
		a.ftpExpected[serviceKey{
			proto: packet.TCP,
			addr:  packet.AddrFrom4(byte(nums[0]), byte(nums[1]), byte(nums[2]), byte(nums[3])),
			port:  uint16(nums[4])<<8 | uint16(nums[5]),
		}] = pkt.TS
	}
}

// trackDelay implements the Section 3.3 out-in packet delay measurement:
// outbound packets stamp their socket pair; an inbound packet whose
// inverse pair was stamped within T_e records the delay t − t₀.
func (a *Analyzer) trackDelay(pkt *packet.Packet) {
	switch pkt.Dir {
	case packet.Outbound:
		a.lastOut[pkt.Pair.Key()] = pkt.TS
	case packet.Inbound:
		key := pkt.Pair.Inverse().Key()
		t0, ok := a.lastOut[key]
		if !ok {
			return
		}
		if d := pkt.TS - t0; d <= a.cfg.DelayExpiry {
			a.delays = append(a.delays, d)
		} else {
			// Expired socket pairs are deleted to limit port-reuse
			// artifacts.
			delete(a.lastOut, key)
		}
	}
}

// FinalizePortIdent applies the second identification stage — matching
// well-known port numbers — to every live connection the payload stage
// left unidentified. Call once after the trace has been fully fed (or let
// BuildReport do it implicitly).
func (a *Analyzer) FinalizePortIdent() {
	for _, c := range a.conns {
		a.identifyByPort(c)
	}
}
