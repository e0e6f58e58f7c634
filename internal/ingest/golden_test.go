package ingest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

// TestRecordWalkGolden holds the record walker to the outcomes recorded
// in testdata/walk.golden, fed three ways. The golden was recorded from
// the io.ReadFull-based stream reader the walker replaced, verify off and
// on, over the inputs goldenInputs rebuilds; nothing regenerates it. Its
// lines pin every framing rule: both byte orders, the plausibility gate,
// truncation inside a header and inside a frame, the clean end at a
// header whose frame is entirely absent, the timestamp base set by a
// frame that does not decode, and the clock-regression clamp.
func TestRecordWalkGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "walk.golden"))
	if err != nil {
		t.Fatal(err)
	}
	inputs := goldenInputs(t)
	lines := 0
	for _, want := range strings.Split(string(raw), "\n") {
		if want == "" || strings.HasPrefix(want, "#") {
			continue
		}
		lines++
		name, rest, _ := strings.Cut(want, " ")
		data, ok := inputs[name]
		if !ok {
			t.Fatalf("golden input %q is not rebuilt", name)
		}
		verify := strings.HasPrefix(rest, "verify=true ")
		for _, feed := range feeds {
			if got := walkOutcome(name, data, verify, feed.open); got != want {
				t.Errorf("%s feed:\n got %s\nwant %s", feed.name, got, want)
			}
		}
	}
	if lines != 2*57 {
		t.Fatalf("golden holds %d outcomes, want 114 (57 inputs, verify off and on)", lines)
	}
}

// goldenBase is the capture clock of the generated golden inputs.
var goldenBase = time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)

// goldenInputs rebuilds, by name, every capture the golden was recorded
// over: the checked-in fuzz corpora of this package and of internal/pcap,
// a generated trace, that trace cut at 42 points around record
// boundaries, and a capture mixing non-IPv4 frames, a corrupt checksum
// and clock regressions into TCP/UDP traffic.
func goldenInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	in := map[string][]byte{}
	for _, dir := range []string{
		filepath.Join("testdata", "fuzz", "FuzzMMapWalk"),
		filepath.Join("..", "pcap", "testdata", "fuzz", "FuzzReadPacket"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				tb.Fatal(err)
			}
			in[filepath.Base(dir)+"/"+e.Name()] = corpusBytes(tb, raw)
		}
	}
	tr, err := trace.Generate(trace.DefaultConfig(2*time.Second, 0.05, 17))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, tr.Packets, 0, goldenBase); err != nil {
		tb.Fatal(err)
	}
	whole := buf.Bytes()
	in["trace"] = whole
	for _, cut := range goldenCuts(whole) {
		in[fmt.Sprintf("trace-cut-%d", cut)] = whole[:cut]
	}
	in["mixed"] = mixedCapture(tb)
	return in
}

// corpusBytes decodes a `go test fuzz v1` file holding one []byte.
func corpusBytes(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		tb.Fatalf("unexpected corpus entry %q", raw)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(s)
}

// goldenCuts returns the lengths at which the golden cuts a
// little-endian capture: at seven records (the first three, the middle
// one and the last three), on the record's start, inside its header,
// one byte short of the header's end, at the header's end (the frame
// entirely absent), one byte into the frame and one byte short of the
// frame's end.
func goldenCuts(data []byte) []int {
	var starts []int
	for off := 24; off+16 <= len(data); off += 16 + int(binary.LittleEndian.Uint32(data[off+8:])) {
		starts = append(starts, off)
	}
	n := len(starts)
	var cuts []int
	for _, i := range []int{0, 1, 2, n / 2, n - 3, n - 2, n - 1} {
		s := starts[i]
		incl := int(binary.LittleEndian.Uint32(data[s+8:]))
		cuts = append(cuts, s, s+1, s+15, s+16, s+17, s+16+incl-1)
	}
	return cuts
}

// mixedCapture interleaves what a real capture carries besides IPv4
// TCP/UDP — an ARP frame first (so it sets the timestamp base), ICMP and
// IPv6 — with six TCP/UDP records, one of which has a corrupt checksum,
// and two records whose timestamps run backwards.
func mixedCapture(tb testing.TB) []byte {
	tb.Helper()
	client := packet.AddrFrom4(140, 112, 3, 4)
	peer := packet.AddrFrom4(61, 2, 3, 4)
	var pkts []packet.Packet
	for i := 0; i < 6; i++ {
		p := packet.Packet{
			Pair: packet.SocketPair{Proto: packet.TCP, SrcAddr: client, SrcPort: 40000 + uint16(i), DstAddr: peer, DstPort: 6881},
			Dir:  packet.Outbound, Len: 40 + 5, Flags: packet.ACK, Payload: []byte("hello"),
		}
		if i%2 == 1 {
			p.Pair = packet.SocketPair{Proto: packet.UDP, SrcAddr: peer, SrcPort: 53, DstAddr: client, DstPort: 5000 + uint16(i)}
			p.Dir, p.Len, p.Flags = packet.Inbound, 28+5, 0
		}
		pkts = append(pkts, p)
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, pkts, 0, goldenBase); err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	var origs []uint32
	for off, raw := 24, buf.Bytes(); off < len(raw); {
		incl := int(binary.LittleEndian.Uint32(raw[off+8:]))
		origs = append(origs, binary.LittleEndian.Uint32(raw[off+12:]))
		frames = append(frames, append([]byte(nil), raw[off+16:off+16+incl]...))
		off += 16 + incl
	}
	frames[3][len(frames[3])-1] ^= 0xff // TCP payload byte: checksum fails

	eth := func(ethertype uint16) []byte {
		return []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0, 0, 1, byte(ethertype >> 8), byte(ethertype)}
	}
	arp := append(eth(0x0806), 0, 1, 8, 0, 6, 4, 0, 1,
		2, 0, 0, 0, 0, 1, 140, 112, 3, 4,
		0, 0, 0, 0, 0, 0, 140, 112, 3, 1)
	icmp := append(eth(0x0800), 0x45, 0, 0, 28, 0, 0, 0x40, 0, 64, 1, 0, 0,
		140, 112, 3, 4, 61, 2, 3, 4,
		8, 0, 0xf7, 0xff, 0, 0, 0, 0)
	ipv6 := append(eth(0x86dd), 0x60, 0, 0, 0, 0, 8, 17, 64)
	ipv6 = append(ipv6, make([]byte, 32)...)
	ipv6 = append(ipv6, 0, 53, 0x13, 0x88, 0, 8, 0, 0)

	out := append([]byte(nil), buf.Bytes()[:24]...)
	sec := uint32(goldenBase.Unix())
	rec := func(secOff, usec uint32, frame []byte, orig uint32) {
		var h [16]byte
		binary.LittleEndian.PutUint32(h[0:], sec+secOff)
		binary.LittleEndian.PutUint32(h[4:], usec)
		binary.LittleEndian.PutUint32(h[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(h[12:], orig)
		out = append(append(out, h[:]...), frame...)
	}
	rec(0, 500_000, arp, uint32(len(arp)))
	rec(0, 600_000, frames[0], origs[0])
	rec(0, 700_000, icmp, uint32(len(icmp)))
	rec(1, 0, frames[1], origs[1])
	rec(1, 100_000, ipv6, uint32(len(ipv6)))
	rec(0, 900_000, frames[2], origs[2]) // runs backwards
	rec(1, 200_000, frames[3], origs[3])
	rec(1, 300_000, arp, uint32(len(arp)))
	rec(2, 0, frames[4], origs[4])
	rec(1, 999_999, frames[5], origs[5]) // runs backwards
	rec(2, 500_000, icmp, uint32(len(icmp)))
	return out
}

// goldenDigest hashes a packet stream field by field, payload bytes
// included.
func goldenDigest(pkts []packet.Packet) string {
	h := sha256.New()
	for i := range pkts {
		p := &pkts[i]
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %x\n", p.TS, p.Pair.Proto, p.Pair.SrcAddr, p.Pair.SrcPort,
			p.Pair.DstAddr, p.Pair.DstPort, p.Dir, p.Len, p.Flags, p.Payload)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// goldenLine formats one recorded outcome.
func goldenLine(name string, verify bool, pkts []packet.Packet, malformed, regressions int64, end string) string {
	return fmt.Sprintf("%s verify=%t header=ok pkts=%d malformed=%d regressions=%d end=%s digest=%s",
		name, verify, len(pkts), malformed, regressions, end, goldenDigest(pkts))
}
