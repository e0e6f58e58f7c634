// Package l7 provides the application-identification machinery of the
// paper's traffic analyzer (Section 3.2): a library of payload signatures
// adopted from the L7-filter project (Table 1) plus the well-known-port
// fallback table used when pattern matching fails.
//
// Pattern matching for TCP operates on a short stream formed by
// concatenating the payloads of at most the first four data packets of a
// connection; UDP payloads are matched per packet. Both rules are
// implemented by the analyzer package on top of this library.
package l7

import (
	"fmt"
	"io"
	"regexp"
	"sync"

	"p2pbound/internal/packet"
)

// App identifies a network application.
type App int

// Applications distinguished by the analyzer. The paper's Table 2 groups
// traffic into HTTP, bittorrent, gnutella, edonkey, UNKNOWN and Others;
// FastTrack, FTP, DNS and the remaining classic services fall under
// "Others" in that grouping.
const (
	Unknown App = iota
	BitTorrent
	EDonkey
	Gnutella
	FastTrack
	HTTP
	FTP
	DNS
	SMTP
	POP3
	IMAP
	SSH
	HTTPS
	NTP
)

// String names the application.
func (a App) String() string {
	switch a {
	case Unknown:
		return "UNKNOWN"
	case BitTorrent:
		return "bittorrent"
	case EDonkey:
		return "edonkey"
	case Gnutella:
		return "gnutella"
	case FastTrack:
		return "fasttrack"
	case HTTP:
		return "http"
	case FTP:
		return "ftp"
	case DNS:
		return "dns"
	case SMTP:
		return "smtp"
	case POP3:
		return "pop3"
	case IMAP:
		return "imap"
	case SSH:
		return "ssh"
	case HTTPS:
		return "https"
	case NTP:
		return "ntp"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// IsP2P reports whether the application is a peer-to-peer protocol — the
// "P2P" port class of Figures 2 and 3.
func (a App) IsP2P() bool {
	switch a {
	case BitTorrent, EDonkey, Gnutella, FastTrack:
		return true
	default:
		return false
	}
}

// Class is the port-number class of Figures 2 and 3.
type Class int

// Port classes: every connection is ALL; identified connections are P2P or
// Non-P2P; unidentified ones are UNKNOWN.
const (
	ClassAll Class = iota
	ClassP2P
	ClassNonP2P
	ClassUnknown
	numClasses
)

// NumClasses is the number of Class values.
const NumClasses = int(numClasses)

// String names the class as in the figures.
func (c Class) String() string {
	switch c {
	case ClassAll:
		return "ALL"
	case ClassP2P:
		return "P2P"
	case ClassNonP2P:
		return "Non-P2P"
	case ClassUnknown:
		return "UNKNOWN"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassOf maps an identified application to its port class.
func ClassOf(a App) Class {
	switch {
	case a == Unknown:
		return ClassUnknown
	case a.IsP2P():
		return ClassP2P
	default:
		return ClassNonP2P
	}
}

// Table2Group maps an application to its row label in Table 2.
func (a App) Table2Group() string {
	switch a {
	case HTTP:
		return "HTTP"
	case BitTorrent:
		return "bittorrent"
	case Gnutella:
		return "gnutella"
	case EDonkey:
		return "edonkey"
	case Unknown:
		return "UNKNOWN"
	default:
		return "Others"
	}
}

// signature pairs an application with its compiled payload pattern.
type signature struct {
	app App
	re  *regexp.Regexp
}

// Library holds the compiled signatures and the well-known-port table.
type Library struct {
	sigs     []signature
	tcpPorts map[uint16]App
	udpPorts map[uint16]App
}

// NewLibrary compiles the Table 1 signature set. Patterns follow the
// L7-filter originals the paper adopts, transliterated to Go regexp syntax
// (case-insensitive, with "." spanning the whole stream prefix).
func NewLibrary() *Library {
	mk := func(expr string) *regexp.Regexp {
		return regexp.MustCompile(`(?is)` + expr)
	}
	return &Library{
		sigs: []signature{
			// Table 1, bittorrent: protocol handshake, DHT queries,
			// Azureus keepalive, and tracker scrape requests.
			{BitTorrent, mk(`^\x13bittorrent protocol|^azver\x01$|^get /scrape\?info_hash=|d1:ad2:id20:`)},
			// Table 1, edonkey: an eDonkey/eMule frame starts with a
			// marker byte (0xc5, 0xd4, 0xe3–0xe5) followed by a 4-byte
			// little-endian length and a known opcode.
			{EDonkey, mk(`^[\xc5\xd4\xe3-\xe5]....[\x01\x02\x05\x14\x15\x16\x18\x19\x1a\x1b\x1c\x20\x21\x32\x33\x34\x35\x36\x38\x40\x41\x42\x43\x46\x47\x48\x49\x4a\x4b\x4c\x4d\x4e\x4f\x50\x51\x52\x53\x54\x55\x56\x57\x58\x60\x81\x82\x90\x91\x92\x93\x94\x96\x97\x98\x99\x9a\x9b\x9c\x9e\xa0\xa1\xa2\xa3\xa4]`)},
			// Table 1, fasttrack: KaZaA-style HTTP-ish requests and the
			// GIVE upload handshake.
			{FastTrack, mk(`^get (/\.hash=[0-9a-f]*|/\.supernode|/\.status|/\.network|/\.files|/\.download/.*) http/1\.1|^give [0-9]{8,}`)},
			// Table 1, gnutella: binary gnd frames, CONNECT handshake,
			// uri-res requests, known user agents, and GIV responses.
			{Gnutella, mk(`^gnd[\x01\x02]?..?\x01|^gnutella connect/[012]\.[0-9]\x0d\x0a|^get /uri-res/n2r\?urn:sha1:|^get /.*user-agent: (gtk-gnutella|bearshare|mactella|gnucleus|gnotella|limewire|imesh)|^get /.*content-type: application/x-gnutella-packets|^giv [0-9]*:[0-9a-f]*`)},
			// FTP before HTTP: an FTP banner ("220 ... FTP") must not be
			// swallowed by a generic response pattern.
			{FTP, mk(`^220[\x09-\x0d -~]*ftp`)},
			// Table 1, http/http-proxy: request lines with a version
			// suffix or status-line responses.
			{HTTP, mk(`^(get|post|head|put|delete|options|connect) [\x09-\x0d -~]* http/[01]\.[019]|^http/[01]\.[019] [1-5][0-9][0-9]`)},
		},
		tcpPorts: map[uint16]App{
			// Table 1 port column plus the classic services observed in
			// the trace.
			21:   FTP,
			22:   SSH,
			25:   SMTP,
			53:   DNS,
			80:   HTTP,
			110:  POP3,
			143:  IMAP,
			443:  HTTPS,
			3128: HTTP,
			4661: EDonkey,
			4662: EDonkey,
			6346: Gnutella,
			6347: Gnutella,
			6881: BitTorrent,
			6882: BitTorrent,
			6883: BitTorrent,
			6884: BitTorrent,
			6885: BitTorrent,
			6886: BitTorrent,
			6887: BitTorrent,
			6888: BitTorrent,
			6889: BitTorrent,
			8080: HTTP,
		},
		udpPorts: map[uint16]App{
			53:   DNS,
			123:  NTP,
			4665: EDonkey,
			4672: EDonkey,
			6881: BitTorrent,
		},
	}
}

// MatchPayload matches a payload (a UDP datagram or a concatenated TCP
// stream prefix) against all signatures and returns the first matching
// application, or Unknown.
//
// Payload bytes are decoded as Latin-1 while matching so that a pattern
// escape like \xe3 matches the raw wire byte 0xe3. (Go's regexp engine
// decodes string and []byte input as UTF-8, under which a lone high
// byte becomes the replacement rune and binary signatures would never
// match.) The decoding happens through a pooled io.RuneReader that
// widens bytes on the fly instead of materializing a widened string, so
// matching allocates nothing at steady state.
func (l *Library) MatchPayload(b []byte) App {
	if len(b) == 0 {
		return Unknown
	}
	r := readerPool.Get().(*latin1Reader)
	app := Unknown
	for _, sig := range l.sigs {
		r.b, r.i = b, 0
		if sig.re.MatchReader(r) {
			app = sig.app
			break
		}
	}
	r.b = nil // do not pin the payload while pooled
	readerPool.Put(r)
	return app
}

// latin1Reader widens each payload byte to the rune with the same
// value, presenting the payload to the regexp engine as a Latin-1 rune
// stream. Reported sizes are 1 so match positions stay byte offsets.
type latin1Reader struct {
	b []byte
	i int
}

// ReadRune implements io.RuneReader.
func (r *latin1Reader) ReadRune() (rune, int, error) {
	if r.i >= len(r.b) {
		return 0, 0, io.EOF
	}
	c := r.b[r.i]
	r.i++
	return rune(c), 1, nil
}

// readerPool recycles latin1Readers across MatchPayload calls; the
// analyzer identifies every connection's stream prefix through here, so
// the matcher must not allocate per call.
var readerPool = sync.Pool{New: func() any { return new(latin1Reader) }}

// MatchPort returns the application registered for a well-known service
// port, or Unknown. For TCP the caller passes the destination port of the
// SYN (the service provider's port); for UDP both ports are worth trying.
func (l *Library) MatchPort(proto packet.Proto, port uint16) App {
	switch proto {
	case packet.TCP:
		return l.tcpPorts[port]
	case packet.UDP:
		return l.udpPorts[port]
	default:
		return Unknown
	}
}
