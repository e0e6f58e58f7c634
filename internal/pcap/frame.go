package pcap

import (
	"errors"

	"p2pbound/internal/packet"
)

// Zero-copy frame decoding for the Reader's record walker. DecodeFrame
// parses headers in place and aliases the payload into the caller's
// frame bytes, so the caller decides whether a copy ever happens. Errors
// are predeclared sentinels — the decode path allocates nothing, not
// even an error message.

// Frame decode errors. A checksum failure returns ErrBadChecksum.
var (
	// ErrFrameTooShort reports a captured frame shorter than the
	// Ethernet+IPv4 header floor.
	ErrFrameTooShort = errors.New("pcap: frame too short")
	// ErrNotIPv4 reports a non-IPv4 ethertype.
	ErrNotIPv4 = errors.New("pcap: not IPv4")
	// ErrBadIPv4Header reports a malformed IPv4 header (version, IHL, or
	// captured length).
	ErrBadIPv4Header = errors.New("pcap: bad IPv4 header")
	// ErrTruncatedL4 reports a transport header extending past the
	// captured bytes.
	ErrTruncatedL4 = errors.New("pcap: truncated transport header")
	// ErrBadDataOffset reports a TCP data offset outside the segment.
	ErrBadDataOffset = errors.New("pcap: bad TCP data offset")
	// ErrUnsupportedProto reports a transport protocol other than TCP or
	// UDP.
	ErrUnsupportedProto = errors.New("pcap: unsupported protocol")
)

// DecodeFrame parses an Ethernet+IPv4+TCP/UDP frame into pkt without
// copying: pkt.Payload aliases frame's bytes (nil when the frame
// carries none), so it is only valid while frame is. origLen is the
// record's original wire length including the Ethernet header; pkt.Len
// receives the IP-layer share of the wire length, which is never shorter
// than the captured frame: max(origLen, len(frame)) − 14, as the Writer
// records it. pkt.TS and pkt.Dir are left untouched — timestamping and
// direction classification belong to the walker driving the decode.
//
// With verify set, IP and transport checksums are validated and a
// mismatch returns ErrBadChecksum; frames truncated by the snap length
// cannot be verified and are accepted.
//
//p2p:hotpath
func DecodeFrame(frame []byte, origLen int, verify bool, pkt *packet.Packet) error {
	if len(frame) < ethHeaderLen+ipv4HeaderLen {
		return ErrFrameTooShort
	}
	if frame[12] != 0x08 || frame[13] != 0x00 {
		return ErrNotIPv4
	}
	ip := frame[ethHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < ipv4HeaderLen || len(ip) < ihl {
		return ErrBadIPv4Header
	}
	if verify && checksum(ip[:ihl], 0) != 0 {
		return ErrBadChecksum
	}

	pair := packet.SocketPair{
		Proto:   packet.Proto(ip[9]),
		SrcAddr: packet.AddrFrom4(ip[12], ip[13], ip[14], ip[15]),
		DstAddr: packet.AddrFrom4(ip[16], ip[17], ip[18], ip[19]),
	}
	l4 := ip[ihl:]
	var (
		payload []byte
		flags   packet.TCPFlags
	)

	switch pair.Proto {
	case packet.TCP:
		if len(l4) < tcpHeaderLen {
			return ErrTruncatedL4
		}
		pair.SrcPort = uint16(l4[0])<<8 | uint16(l4[1])
		pair.DstPort = uint16(l4[2])<<8 | uint16(l4[3])
		flags = packet.TCPFlags(l4[13])
		dataOff := int(l4[12]>>4) * 4
		if dataOff < tcpHeaderLen || dataOff > len(l4) {
			return ErrBadDataOffset
		}
		payload = l4[dataOff:]
		if verify && !snapTruncated(ip, ihl, len(l4)) {
			if checksum(l4, pseudoSum(pair, len(l4))) != 0 {
				return ErrBadChecksum
			}
		}
	case packet.UDP:
		if len(l4) < udpHeaderLen {
			return ErrTruncatedL4
		}
		pair.SrcPort = uint16(l4[0])<<8 | uint16(l4[1])
		pair.DstPort = uint16(l4[2])<<8 | uint16(l4[3])
		payload = l4[udpHeaderLen:]
		if verify && !snapTruncated(ip, ihl, len(l4)) {
			if checksum(l4, pseudoSum(pair, len(l4))) != 0 {
				return ErrBadChecksum
			}
		}
	default:
		return ErrUnsupportedProto
	}

	if len(payload) == 0 {
		payload = nil
	}
	pkt.Pair = pair
	pkt.Len = max(origLen, len(frame)) - ethHeaderLen
	pkt.Flags = flags
	pkt.Payload = payload
	return nil
}

// snapTruncated reports whether the captured bytes cover less than the
// IP total length (snap-length truncation), in which case checksums
// cannot be verified.
//
//p2p:hotpath
func snapTruncated(ip []byte, ihl, l4Len int) bool {
	total := int(ip[2])<<8 | int(ip[3])
	return ihl+l4Len < total
}
