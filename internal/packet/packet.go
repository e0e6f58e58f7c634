// Package packet defines the five-tuple socket pairs, packets, and
// direction classification shared by every component of the system.
//
// The terminology follows Section 3.2 of the paper: a network connection is
// identified by a five-tuple socket pair σ = {protocol, source-address,
// source-port, destination-address, destination-port}; the inverse socket
// pair σ̄ identifies the same connection seen from the opposite direction.
package packet

import (
	"fmt"
	"math/bits"
	"net"
	"time"
)

// Proto is an IP transport protocol number.
type Proto uint8

// Transport protocols considered by the traffic analyzer. The paper's
// analyzer focuses only on TCP and UDP, "the major data transmission
// protocols used over Internet".
const (
	TCP Proto = 6
	UDP Proto = 17
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address in host byte order. The trace collection
// environment in the paper is an IPv4 campus subnet; a fixed-size integer
// address keeps socket-pair keys compact and hashing allocation-free.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
//
//p2p:hotpath
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 string.
func ParseAddr(s string) (Addr, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, fmt.Errorf("packet: address %q is not IPv4", s)
	}
	return AddrFrom4(v4[0], v4[1], v4[2], v4[3]), nil
}

// IP converts the address to a net.IP.
func (a Addr) IP() net.IP {
	return net.IPv4(byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Network is an IPv4 prefix used to decide which addresses belong to the
// monitored client network (Figure 1: traffic sent to the campus network is
// inbound, traffic in the other direction is outbound).
type Network struct {
	Prefix Addr
	Mask   Addr
}

// ParseNetwork parses CIDR notation such as "140.112.0.0/16".
func ParseNetwork(s string) (Network, error) {
	_, ipnet, err := net.ParseCIDR(s)
	if err != nil {
		return Network{}, fmt.Errorf("packet: parse network %q: %w", s, err)
	}
	v4 := ipnet.IP.To4()
	if v4 == nil {
		return Network{}, fmt.Errorf("packet: network %q is not IPv4", s)
	}
	ones, _ := ipnet.Mask.Size()
	return CIDR(AddrFrom4(v4[0], v4[1], v4[2], v4[3]), ones), nil
}

// CIDR builds a Network from a prefix address and a prefix length.
func CIDR(prefix Addr, bits int) Network {
	var mask Addr
	if bits > 0 {
		mask = Addr(^uint32(0) << (32 - uint(bits)))
	}
	return Network{Prefix: prefix & mask, Mask: mask}
}

// Contains reports whether addr falls inside the prefix.
//
//p2p:hotpath
func (n Network) Contains(addr Addr) bool {
	return addr&n.Mask == n.Prefix
}

// String renders the network in CIDR notation.
func (n Network) String() string {
	bits := 0
	for m := uint32(n.Mask); m != 0; m <<= 1 {
		bits++
	}
	return fmt.Sprintf("%s/%d", n.Prefix, bits)
}

// SocketPair is the five-tuple σ identifying a connection.
type SocketPair struct {
	Proto   Proto
	SrcAddr Addr
	SrcPort uint16
	DstAddr Addr
	DstPort uint16
}

// Inverse returns σ̄, the same connection viewed from the other end.
//
//p2p:hotpath
func (s SocketPair) Inverse() SocketPair {
	return SocketPair{
		Proto:   s.Proto,
		SrcAddr: s.DstAddr,
		SrcPort: s.DstPort,
		DstAddr: s.SrcAddr,
		DstPort: s.SrcPort,
	}
}

// KeySize is the length in bytes of a full-tuple key.
const KeySize = 13

// HolePunchKeySize is the length in bytes of a partial-tuple key used when
// hole-punching support is enabled (the remote port is omitted so a punched
// hole admits inbound packets from any remote port, Section 4.2).
const HolePunchKeySize = 11

// AppendKey appends the canonical full-tuple byte encoding of σ to dst and
// returns the extended slice. Two socket pairs encode equal keys iff they
// are identical; σ and σ̄ encode different keys.
func (s SocketPair) AppendKey(dst []byte) []byte {
	return append(dst,
		byte(s.Proto),
		byte(s.SrcAddr>>24), byte(s.SrcAddr>>16), byte(s.SrcAddr>>8), byte(s.SrcAddr),
		byte(s.SrcPort>>8), byte(s.SrcPort),
		byte(s.DstAddr>>24), byte(s.DstAddr>>16), byte(s.DstAddr>>8), byte(s.DstAddr),
		byte(s.DstPort>>8), byte(s.DstPort),
	)
}

// Key returns the canonical full-tuple byte encoding as a fixed array,
// suitable for use as a map key without allocation.
func (s SocketPair) Key() [KeySize]byte {
	var k [KeySize]byte
	s.PutKey(&k)
	return k
}

// PutKey writes the canonical full-tuple encoding of σ into dst. It is
// the hot-path form of AppendKey: fixed stores into a caller-owned
// array, no slice growth or bounds-check churn, so a filter can encode
// one key per packet with zero allocations.
//
//p2p:hotpath
func (s SocketPair) PutKey(dst *[KeySize]byte) {
	dst[0] = byte(s.Proto)
	dst[1], dst[2], dst[3], dst[4] = byte(s.SrcAddr>>24), byte(s.SrcAddr>>16), byte(s.SrcAddr>>8), byte(s.SrcAddr)
	dst[5], dst[6] = byte(s.SrcPort>>8), byte(s.SrcPort)
	dst[7], dst[8], dst[9], dst[10] = byte(s.DstAddr>>24), byte(s.DstAddr>>16), byte(s.DstAddr>>8), byte(s.DstAddr)
	dst[11], dst[12] = byte(s.DstPort>>8), byte(s.DstPort)
}

// PutHolePunchKey writes the partial-tuple hole-punch encoding of σ
// ({protocol, source-address, source-port, destination-address}) into
// dst; the fixed-store analogue of AppendHolePunchKey.
//
//p2p:hotpath
func (s SocketPair) PutHolePunchKey(dst *[HolePunchKeySize]byte) {
	dst[0] = byte(s.Proto)
	dst[1], dst[2], dst[3], dst[4] = byte(s.SrcAddr>>24), byte(s.SrcAddr>>16), byte(s.SrcAddr>>8), byte(s.SrcAddr)
	dst[5], dst[6] = byte(s.SrcPort>>8), byte(s.SrcPort)
	dst[7], dst[8], dst[9], dst[10] = byte(s.DstAddr>>24), byte(s.DstAddr>>16), byte(s.DstAddr>>8), byte(s.DstAddr)
}

// KeyEncoder encodes socket pairs into a reusable fixed buffer: the key
// bytes the per-index hash family walks (the one-shot hash reads the
// same bytes as KeyWords, without the buffer). The hole-punch encoding
// is exactly the first HolePunchKeySize bytes of the full encoding (the
// remote port is the trailing field), so one buffer serves both modes;
// Outbound returns a slice of the encoder's own storage, valid until
// the next call.
type KeyEncoder struct {
	buf       [KeySize]byte
	holePunch bool
}

// NewKeyEncoder returns an encoder producing full-tuple keys, or
// partial-tuple (remote-port-free) keys when holePunch is set.
func NewKeyEncoder(holePunch bool) KeyEncoder {
	return KeyEncoder{holePunch: holePunch}
}

// Outbound encodes the hash key of an outbound packet's socket pair:
// the canonical PutKey bytes, truncated to the hole-punch prefix when
// the encoder is in hole-punch mode.
//
//p2p:hotpath
func (e *KeyEncoder) Outbound(pair SocketPair) []byte {
	pair.PutKey(&e.buf)
	if e.holePunch {
		return e.buf[:HolePunchKeySize]
	}
	return e.buf[:KeySize]
}

// KeyWords returns the full-tuple key as the two overlapping words the
// one-shot hash consumes: a and b are the little-endian loads of bytes
// [0,8) and [5,13) of the PutKey encoding, computed directly from the
// fields. core.Indexer hashes these instead of encoding the key
// into a buffer and loading it back — the byte stores of PutKey and the
// misaligned overlapping loads of the hash defeat store-to-load
// forwarding, so the round trip costs more than the hash itself.
// KeyWordsMatchBytes (keyencoder_test.go) pins the equivalence.
//
//p2p:hotpath
func (s SocketPair) KeyWords() (a, b uint64) {
	sa := bits.ReverseBytes32(uint32(s.SrcAddr))
	da := bits.ReverseBytes32(uint32(s.DstAddr))
	sp := bits.ReverseBytes16(s.SrcPort)
	a = uint64(byte(s.Proto)) | uint64(sa)<<8 | uint64(sp)<<40 | uint64(byte(s.DstAddr>>24))<<56
	b = uint64(sp) | uint64(da)<<16 | uint64(bits.ReverseBytes16(s.DstPort))<<48
	return a, b
}

// HolePunchKeyWords is KeyWords for the partial-tuple hole-punch key:
// the little-endian loads of bytes [0,8) and [3,11) of the
// PutHolePunchKey encoding.
//
//p2p:hotpath
func (s SocketPair) HolePunchKeyWords() (a, b uint64) {
	sa := bits.ReverseBytes32(uint32(s.SrcAddr))
	da := bits.ReverseBytes32(uint32(s.DstAddr))
	sp := bits.ReverseBytes16(s.SrcPort)
	a = uint64(byte(s.Proto)) | uint64(sa)<<8 | uint64(sp)<<40 | uint64(byte(s.DstAddr>>24))<<56
	b = uint64(sa)>>16 | uint64(sp)<<16 | uint64(da)<<32
	return a, b
}

// AppendHolePunchKey appends the partial-tuple encoding used for
// hole-punching mode when σ belongs to an outbound packet:
// {protocol, source-address, source-port, destination-address}.
func (s SocketPair) AppendHolePunchKey(dst []byte) []byte {
	return append(dst,
		byte(s.Proto),
		byte(s.SrcAddr>>24), byte(s.SrcAddr>>16), byte(s.SrcAddr>>8), byte(s.SrcAddr),
		byte(s.SrcPort>>8), byte(s.SrcPort),
		byte(s.DstAddr>>24), byte(s.DstAddr>>16), byte(s.DstAddr>>8), byte(s.DstAddr),
	)
}

// String renders the socket pair as "TCP 1.2.3.4:80 -> 5.6.7.8:1234".
func (s SocketPair) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d", s.Proto, s.SrcAddr, s.SrcPort, s.DstAddr, s.DstPort)
}

// TCPFlags is the set of TCP control bits carried by a segment.
type TCPFlags uint8

// TCP control bits, matching their on-the-wire positions.
const (
	FIN TCPFlags = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
)

// Has reports whether all bits in f are set.
func (t TCPFlags) Has(f TCPFlags) bool { return t&f == f }

// String renders the flags in tcpdump style, e.g. "SA" for SYN+ACK.
func (t TCPFlags) String() string {
	const names = "FSRPAU"
	buf := make([]byte, 0, 6)
	for i := 0; i < 6; i++ {
		if t&(1<<uint(i)) != 0 {
			buf = append(buf, names[i])
		}
	}
	if len(buf) == 0 {
		return "."
	}
	return string(buf)
}

// Direction classifies a packet relative to the client network.
type Direction int

// Packet directions per the paper's definitions: an outbound packet is sent
// from the client network, an inbound packet is received by it.
const (
	Outbound Direction = iota + 1
	Inbound
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Outbound:
		return "outbound"
	case Inbound:
		return "inbound"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Packet is a single observed packet. TS is an offset from the start of the
// trace; the replay engine and filters are driven entirely by these
// simulated timestamps, never by the wall clock.
type Packet struct {
	TS      time.Duration
	Pair    SocketPair
	Dir     Direction
	Len     int // total bytes on the wire (headers + payload)
	Flags   TCPFlags
	Payload []byte // nil for packets whose payload is irrelevant
}

// IsTCPData reports whether the packet is a TCP segment carrying payload.
//
//p2p:hotpath
func (p *Packet) IsTCPData() bool {
	return p.Pair.Proto == TCP && len(p.Payload) > 0
}

// Classify returns the packet direction implied by the client network: a
// packet whose source lies inside the network is outbound. Packets with
// both or neither endpoint inside the network are resolved in favour of the
// source (hairpin and transit traffic is rare in a client network).
//
//p2p:hotpath
func Classify(pair SocketPair, clientNet Network) Direction {
	if clientNet.Contains(pair.SrcAddr) {
		return Outbound
	}
	return Inbound
}
