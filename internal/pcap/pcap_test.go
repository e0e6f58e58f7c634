package pcap

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"

	"p2pbound/internal/packet"
	"p2pbound/internal/trace"
)

var clientNet = packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)

var base = time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)

func tcpPacket(ts time.Duration, payload []byte) packet.Packet {
	pay := payload
	return packet.Packet{
		TS: ts,
		Pair: packet.SocketPair{
			Proto:   packet.TCP,
			SrcAddr: packet.AddrFrom4(140, 112, 7, 7), SrcPort: 40000,
			DstAddr: packet.AddrFrom4(8, 8, 8, 8), DstPort: 80,
		},
		Dir:     packet.Outbound,
		Len:     40 + len(pay),
		Flags:   packet.SYN | packet.ACK,
		Payload: pay,
	}
}

func udpPacket(ts time.Duration, payload []byte) packet.Packet {
	return packet.Packet{
		TS: ts,
		Pair: packet.SocketPair{
			Proto:   packet.UDP,
			SrcAddr: packet.AddrFrom4(9, 9, 9, 9), SrcPort: 53,
			DstAddr: packet.AddrFrom4(140, 112, 1, 1), DstPort: 5353,
		},
		Dir:     packet.Inbound,
		Len:     28 + len(payload),
		Payload: payload,
	}
}

func TestRoundTrip(t *testing.T) {
	give := []packet.Packet{
		tcpPacket(0, []byte("GET / HTTP/1.1\r\n\r\n")),
		udpPacket(time.Second, []byte{1, 2, 3, 4}),
		tcpPacket(2*time.Second+500*time.Millisecond, nil),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, give, 0, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf, clientNet, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(give) {
		t.Fatalf("read %d packets, want %d", len(got), len(give))
	}
	for i := range give {
		g, w := &got[i], &give[i]
		if g.TS != w.TS {
			t.Errorf("packet %d: TS = %v, want %v", i, g.TS, w.TS)
		}
		if g.Pair != w.Pair {
			t.Errorf("packet %d: pair = %v, want %v", i, g.Pair, w.Pair)
		}
		if g.Dir != w.Dir {
			t.Errorf("packet %d: dir = %v, want %v", i, g.Dir, w.Dir)
		}
		if g.Len != w.Len {
			t.Errorf("packet %d: len = %d, want %d", i, g.Len, w.Len)
		}
		if g.Flags != w.Flags && w.Pair.Proto == packet.TCP {
			t.Errorf("packet %d: flags = %v, want %v", i, g.Flags, w.Flags)
		}
		if string(g.Payload) != string(w.Payload) {
			t.Errorf("packet %d: payload mismatch", i)
		}
	}
}

// TestHeaderTraceKeepsLengths: stripped data packets (payload absent, Len
// large) keep their original wire length through the round trip — the
// paper's header-trace property.
func TestHeaderTraceKeepsLengths(t *testing.T) {
	give := tcpPacket(0, nil)
	give.Len = 1500 // a full data segment whose payload was stripped
	var buf bytes.Buffer
	if err := WriteAll(&buf, []packet.Packet{give}, 0, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf, clientNet, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Len != 1500 {
		t.Fatalf("round-tripped len = %+v, want 1500", got)
	}
	if len(got[0].Payload) != 0 {
		t.Fatal("stripped packet grew a payload")
	}
}

// TestSnaplenTruncation: payloads beyond the snap length are cut in the
// file but the original length survives.
func TestSnaplenTruncation(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	give := tcpPacket(0, payload)
	var buf bytes.Buffer
	if err := WriteAll(&buf, []packet.Packet{give}, 128, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf, clientNet, true) // truncated → checksum skipped
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("packets = %d", len(got))
	}
	if got[0].Len != give.Len {
		t.Fatalf("orig len = %d, want %d", got[0].Len, give.Len)
	}
	if len(got[0].Payload) >= len(payload) {
		t.Fatal("payload not truncated by snaplen")
	}
}

// TestChecksumVerification: flipping a payload byte makes the reader
// reject the packet with ErrBadChecksum, and ReadAll skips it.
func TestChecksumVerification(t *testing.T) {
	give := []packet.Packet{
		tcpPacket(0, []byte("hello checksum")),
		udpPacket(time.Second, []byte("dns-ish")),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, give, 0, base); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt one payload byte of the first packet (well past the
	// global header 24 + record header 16 + eth 14 + ip 20 + tcp 20).
	raw[24+16+14+20+20+3] ^= 0xff

	frame := raw[24+16 : 24+16+int(binary.LittleEndian.Uint32(raw[24+8:]))]
	var pkt packet.Packet
	if err := DecodeFrame(frame, len(frame), true, &pkt); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt frame error = %v, want ErrBadChecksum", err)
	}

	// The reader counts the corrupt packet and reads on.
	r, err := NewReader(bytes.NewReader(raw), clientNet, true)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 4)
	n, err := r.ReadBatch(batch)
	if n != 1 || (err != nil && err != io.EOF) {
		t.Fatalf("ReadBatch = %d, %v; want the second packet", n, err)
	}
	if batch[0].Pair.Proto != packet.UDP {
		t.Fatalf("second packet proto = %v", batch[0].Pair.Proto)
	}
	if r.Malformed() != 1 {
		t.Fatalf("Malformed() = %d, want 1", r.Malformed())
	}

	// ReadAll silently skips the corrupt one.
	got, err := ReadAll(bytes.NewReader(raw), clientNet, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("ReadAll kept %d packets, want 1", len(got))
	}
}

func TestBigEndianFilesAccepted(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []packet.Packet{udpPacket(0, []byte{9})}, 0, base); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Byte-swap the global header and the record header into big endian.
	be := make([]byte, len(raw))
	copy(be, raw)
	binary.BigEndian.PutUint32(be[0:], binary.LittleEndian.Uint32(raw[0:]))
	binary.BigEndian.PutUint16(be[4:], binary.LittleEndian.Uint16(raw[4:]))
	binary.BigEndian.PutUint16(be[6:], binary.LittleEndian.Uint16(raw[6:]))
	binary.BigEndian.PutUint32(be[16:], binary.LittleEndian.Uint32(raw[16:]))
	binary.BigEndian.PutUint32(be[20:], binary.LittleEndian.Uint32(raw[20:]))
	for off := 24; off < len(raw); off += 16 {
		for f := 0; f < 4; f++ {
			binary.BigEndian.PutUint32(be[off+f*4:], binary.LittleEndian.Uint32(raw[off+f*4:]))
		}
		off += int(binary.LittleEndian.Uint32(raw[off+8:]))
	}
	got, err := ReadAll(bytes.NewReader(be), clientNet, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("big-endian file: %d packets", len(got))
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short")), clientNet, false); err == nil {
		t.Fatal("short header accepted")
	}
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad), clientNet, false); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEOFAfterLastPacket(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []packet.Packet{udpPacket(0, []byte{1})}, 0, base); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, clientNet, false)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 1)
	if n, err := r.ReadBatch(batch); n != 1 || err != nil {
		t.Fatalf("ReadBatch = %d, %v; want the packet", n, err)
	}
	if n, err := r.ReadBatch(batch); n != 0 || err != io.EOF {
		t.Fatalf("ReadBatch = %d, %v; want 0, io.EOF", n, err)
	}
}

// errAfterReader returns its bytes in reads of at most chunk bytes and
// returns err alongside the last of them.
type errAfterReader struct {
	data  []byte
	chunk int
	err   error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, r.err
	}
	return n, nil
}

// TestReadErrorAfterCompleteRecords: a Read that returns bytes together
// with an error other than io.EOF still delivers every record those
// bytes complete. The error then ends the read, in place of the clean
// end or the truncation the bytes alone would report.
func TestReadErrorAfterCompleteRecords(t *testing.T) {
	want := []packet.Packet{
		udpPacket(0, []byte{1}),
		tcpPacket(time.Millisecond, []byte("ab")),
		udpPacket(2*time.Millisecond, []byte("cde")),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, want, 0, base); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	errGone := errors.New("device gone")
	for _, tc := range []struct {
		name  string
		data  []byte
		chunk int
		pkts  int
	}{
		{"all records in the failing read", data, len(data), 3},
		{"failing read completes the last record", data, 10, 3},
		{"partial record before the failing read", data[:len(data)-3], 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(&errAfterReader{data: tc.data, chunk: tc.chunk, err: errGone}, clientNet, false)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]packet.Packet, 8)
			var got []packet.Packet
			for err == nil {
				var n int
				n, err = r.ReadBatch(batch)
				for _, pkt := range batch[:n] {
					// Payloads alias the window until the next ReadBatch.
					pkt.Payload = bytes.Clone(pkt.Payload)
					got = append(got, pkt)
				}
			}
			if !errors.Is(err, errGone) {
				t.Fatalf("read ended with %v, want %v", err, errGone)
			}
			if len(got) != tc.pkts {
				t.Fatalf("decoded %d packets, want %d", len(got), tc.pkts)
			}
			for i := range got {
				if got[i].TS != want[i].TS || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("packet %d: TS %v payload %q, want %v %q", i, got[i].TS, got[i].Payload, want[i].TS, want[i].Payload)
				}
			}
		})
	}
}

// negativeLenCapture is a little-endian capture, found by fuzzing, of
// one record whose original length (4) is shorter than its captured
// Ethernet/IPv4/UDP frame (42 bytes), followed by three stray bytes.
const negativeLenCapture = "d4c3b2a1303030303030303030303030303030300100000030303030303030302a00000004000000303030303030303030303030080045303030303030303011303030303030303030303030303030303030303030"

// TestShortOriginalLengthClamped: a record claiming fewer original bytes
// than it captured decodes with the captured length, as the Writer
// records it, never with a negative one a meter would subtract.
func TestShortOriginalLengthClamped(t *testing.T) {
	data, err := hex.DecodeString(negativeLenCapture)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(data), clientNet, false)
	if !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("stray trailing bytes read as %v, want ErrTruncatedFile", err)
	}
	if len(got) != 1 || got[0].Len != 42-ethHeaderLen {
		t.Fatalf("decoded %+v, want one packet of length %d", got, 42-ethHeaderLen)
	}
}

// TestGeneratedTraceRoundTrip: an entire synthetic trace survives the
// pcap round trip with identical five tuples, directions and lengths —
// the paper's capture-then-replay pipeline.
func TestGeneratedTraceRoundTrip(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(5*time.Second, 0.02, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr.Packets, 0, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf, tr.Config.ClientNet, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Packets) {
		t.Fatalf("round trip lost packets: %d vs %d (checksum rejects?)", len(got), len(tr.Packets))
	}
	for i := range got {
		g, w := &got[i], &tr.Packets[i]
		if g.Pair != w.Pair || g.Dir != w.Dir || g.Len != w.Len {
			t.Fatalf("packet %d differs: %+v vs %+v", i, g, w)
		}
		// pcap stores microsecond timestamps, and the reader rebases
		// offsets on the first packet; inter-packet spacing must agree
		// to 1 µs.
		wantTS := w.TS - tr.Packets[0].TS
		if d := g.TS - wantTS; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("packet %d: TS drift %v", i, d)
		}
	}
}
