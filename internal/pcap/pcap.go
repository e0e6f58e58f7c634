// Package pcap reads and writes packet traces in the tcpdump/libpcap file
// format the paper's capture pipeline uses (Section 3.1–3.2): full traces
// carry payloads, while header traces strip payloads and keep only the
// layer-2 to layer-4 headers, "stored using the same format as the tcpdump
// program".
//
// Packets are serialized as Ethernet + IPv4 + TCP/UDP with valid IP and
// transport checksums; the Reader can verify both and skip corrupt
// packets exactly as the paper's analyzer does.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"p2pbound/internal/packet"
)

// File-format constants.
const (
	// magic is the pcap magic number as a little-endian load reads it
	// from a little-endian file; magicSwapped is the same load from a
	// big-endian file.
	magic        = 0xa1b2c3d4
	magicSwapped = 0xd4c3b2a1
	versionMajor = 2
	versionMinor = 4
	linkEthernet = 1

	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8

	// DefaultSnaplen keeps layer 2–4 headers plus a short payload
	// prefix, enough for the Table 1 signatures.
	DefaultSnaplen = 256
)

// ErrBadChecksum reports a packet whose IP or transport checksum failed
// verification; the paper's analyzer does not consider such packets.
var ErrBadChecksum = errors.New("pcap: checksum mismatch")

// Writer streams packets into a pcap file.
type Writer struct {
	w       io.Writer
	snaplen int
	base    time.Time
	buf     []byte
	rec     [16]byte
}

// NewWriter writes the pcap global header and returns a Writer. snaplen
// ≤ 0 selects DefaultSnaplen. base is the absolute capture start time that
// packet TS offsets are added to.
func NewWriter(w io.Writer, snaplen int, base time.Time) (*Writer, error) {
	if snaplen <= 0 {
		snaplen = DefaultSnaplen
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], uint32(snaplen))
	binary.LittleEndian.PutUint32(hdr[20:], linkEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write global header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen, base: base}, nil
}

// WritePacket serializes one packet. Payload bytes beyond the snap length
// (and payload the packet never carried, e.g. stripped data segments) are
// reflected only in the record's original-length field — the header-trace
// behaviour of the paper's collection pipeline.
func (w *Writer) WritePacket(pkt *packet.Packet) error {
	frame := appendFrame(w.buf[:0], pkt)
	w.buf = frame[:0]

	origLen := ethHeaderLen + pkt.Len
	inclLen := len(frame)
	if inclLen > w.snaplen {
		inclLen = w.snaplen
	}
	if origLen < inclLen {
		origLen = inclLen
	}

	ts := w.base.Add(pkt.TS)
	binary.LittleEndian.PutUint32(w.rec[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(w.rec[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.rec[8:], uint32(inclLen))
	binary.LittleEndian.PutUint32(w.rec[12:], uint32(origLen))
	if _, err := w.w.Write(w.rec[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(frame[:inclLen]); err != nil {
		return fmt.Errorf("pcap: write frame: %w", err)
	}
	return nil
}

// appendFrame renders the Ethernet+IPv4+L4 frame for pkt. The IP total
// length reflects the packet's true wire length so header traces preserve
// byte counts; the serialized payload is whatever bytes the packet
// actually carries.
func appendFrame(dst []byte, pkt *packet.Packet) []byte {
	p := pkt.Pair

	// Ethernet: locally administered MACs derived from the addresses.
	dst = append(dst,
		0x02, byte(p.DstAddr>>24), byte(p.DstAddr>>16), byte(p.DstAddr>>8), byte(p.DstAddr), 0x01,
		0x02, byte(p.SrcAddr>>24), byte(p.SrcAddr>>16), byte(p.SrcAddr>>8), byte(p.SrcAddr), 0x01,
		0x08, 0x00, // EtherType IPv4
	)

	ipStart := len(dst)
	ipTotal := pkt.Len
	minTotal := ipv4HeaderLen + l4HeaderLen(p.Proto) + len(pkt.Payload)
	if ipTotal < minTotal {
		ipTotal = minTotal
	}
	dst = append(dst,
		0x45, 0x00, // version/IHL, DSCP
		byte(ipTotal>>8), byte(ipTotal),
		0x00, 0x00, 0x40, 0x00, // ID, flags: DF
		64, byte(p.Proto),
		0x00, 0x00, // checksum placeholder
		byte(p.SrcAddr>>24), byte(p.SrcAddr>>16), byte(p.SrcAddr>>8), byte(p.SrcAddr),
		byte(p.DstAddr>>24), byte(p.DstAddr>>16), byte(p.DstAddr>>8), byte(p.DstAddr),
	)
	ipSum := checksum(dst[ipStart:ipStart+ipv4HeaderLen], 0)
	binary.BigEndian.PutUint16(dst[ipStart+10:], ipSum)

	l4Start := len(dst)
	switch p.Proto {
	case packet.TCP:
		dst = append(dst,
			byte(p.SrcPort>>8), byte(p.SrcPort),
			byte(p.DstPort>>8), byte(p.DstPort),
			0, 0, 0, 0, // seq
			0, 0, 0, 0, // ack
			0x50, byte(pkt.Flags), // data offset, flags
			0xff, 0xff, // window
			0, 0, // checksum placeholder
			0, 0, // urgent
		)
	case packet.UDP:
		udpLen := udpHeaderLen + len(pkt.Payload)
		dst = append(dst,
			byte(p.SrcPort>>8), byte(p.SrcPort),
			byte(p.DstPort>>8), byte(p.DstPort),
			byte(udpLen>>8), byte(udpLen),
			0, 0, // checksum placeholder
		)
	}
	dst = append(dst, pkt.Payload...)

	// Transport checksum over the pseudo header + segment.
	seg := dst[l4Start:]
	pseudo := pseudoSum(p, len(seg))
	l4Sum := checksum(seg, pseudo)
	switch p.Proto {
	case packet.TCP:
		binary.BigEndian.PutUint16(dst[l4Start+16:], l4Sum)
	case packet.UDP:
		if l4Sum == 0 {
			l4Sum = 0xffff // UDP transmits an all-zero checksum as 0xffff
		}
		binary.BigEndian.PutUint16(dst[l4Start+6:], l4Sum)
	}
	return dst
}

// l4HeaderLen returns the transport header length for the protocol.
func l4HeaderLen(proto packet.Proto) int {
	if proto == packet.UDP {
		return udpHeaderLen
	}
	return tcpHeaderLen
}

// pseudoSum folds the IPv4 pseudo header into an initial checksum value.
//
//p2p:hotpath
func pseudoSum(p packet.SocketPair, segLen int) uint32 {
	var sum uint32
	sum += uint32(p.SrcAddr>>16) + uint32(p.SrcAddr&0xffff)
	sum += uint32(p.DstAddr>>16) + uint32(p.DstAddr&0xffff)
	sum += uint32(p.Proto)
	sum += uint32(segLen)
	return sum
}

// checksum computes the ones-complement Internet checksum of b seeded
// with init.
//
//p2p:hotpath
func checksum(b []byte, init uint32) uint16 {
	sum := init
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
