package pcap

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"p2pbound/internal/packet"
)

// FuzzReadPacket feeds arbitrary bytes to the stream Reader; ReadBatch
// must never panic, must terminate — with packets, a framing error, or
// EOF — and must never decode a packet shorter than its payload, or of
// negative length. Run the fuzzer with
// `go test -fuzz FuzzReadPacket ./internal/pcap`.
func FuzzReadPacket(f *testing.F) {
	// Seed with a valid two-packet capture and a few mutations.
	var buf bytes.Buffer
	seedPackets := []packet.Packet{
		{
			TS: 0,
			Pair: packet.SocketPair{
				Proto:   packet.TCP,
				SrcAddr: packet.AddrFrom4(140, 112, 1, 1), SrcPort: 40000,
				DstAddr: packet.AddrFrom4(8, 8, 8, 8), DstPort: 80,
			},
			Dir: packet.Outbound, Len: 60, Flags: packet.SYN,
			Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
		},
		{
			TS: time.Second,
			Pair: packet.SocketPair{
				Proto:   packet.UDP,
				SrcAddr: packet.AddrFrom4(9, 9, 9, 9), SrcPort: 53,
				DstAddr: packet.AddrFrom4(140, 112, 1, 1), DstPort: 5353,
			},
			Dir: packet.Inbound, Len: 40,
			Payload: []byte{1, 2, 3},
		},
	}
	if err := WriteAll(&buf, seedPackets, 0, time.Unix(1_163_000_000, 0)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:30])
	truncated := append([]byte(nil), valid...)
	truncated[0] ^= 0xff
	f.Add(truncated)
	f.Add([]byte{})
	negativeLen, err := hex.DecodeString(negativeLenCapture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(negativeLen)

	clientNet := packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{false, true} {
			r, err := NewReader(bytes.NewReader(data), clientNet, verify)
			if err != nil {
				continue
			}
			batch := make([]packet.Packet, 8)
			for {
				n, err := r.ReadBatch(batch)
				for i := range batch[:n] {
					if p := &batch[i]; p.Len < len(p.Payload) || p.Len < 0 {
						t.Fatalf("packet length %d with a %d-byte payload", p.Len, len(p.Payload))
					}
				}
				if err != nil {
					break
				}
			}
		}
	})
}
