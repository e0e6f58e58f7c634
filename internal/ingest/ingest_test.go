package ingest_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

var testNet = packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)

// tracePcap renders a generated trace to pcap bytes.
func tracePcap(t testing.TB, duration time.Duration, scale float64, seed uint64) ([]byte, []packet.Packet) {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig(duration, scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	base := time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)
	if err := pcap.WriteAll(&buf, tr.Packets, 0, base); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr.Packets
}

// drain reads src to exhaustion, cloning every packet and payload.
func drain(t testing.TB, src *ingest.Source) []packet.Packet {
	t.Helper()
	b := ingest.NewBatch(0)
	var out []packet.Packet
	for {
		n, err := src.ReadBatch(b)
		for i := range b.Pkts[:n] {
			cp := b.Pkts[i]
			cp.Payload = append([]byte(nil), cp.Payload...)
			if len(cp.Payload) == 0 {
				cp.Payload = nil
			}
			out = append(out, cp)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("ReadBatch: %v", err)
			}
			return out
		}
	}
}

func pktEqual(a, b *packet.Packet) bool {
	return a.TS == b.TS && a.Pair == b.Pair && a.Dir == b.Dir &&
		a.Len == b.Len && a.Flags == b.Flags && bytes.Equal(a.Payload, b.Payload)
}

// TestMMapMatchesReader pins the mapping feed of the record walker to
// its stream feed: same packets, same order, same timestamps,
// byte-identical payloads — and therefore identical filter verdicts.
func TestMMapMatchesReader(t *testing.T) {
	data, _ := tracePcap(t, 10*time.Second, 0.05, 7)

	rs, err := ingest.NewStreamSource(bytes.NewReader(data), testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, rs)

	ms, err := ingest.NewMemSource(data, testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, ms)

	if len(got) != len(want) {
		t.Fatalf("mapping decoded %d packets, stream %d", len(got), len(want))
	}
	for i := range want {
		if !pktEqual(&got[i], &want[i]) {
			t.Fatalf("packet %d diverged:\nmapping %+v\nstream  %+v", i, got[i], want[i])
		}
	}
	if ms.Malformed() != 0 || rs.Malformed() != 0 {
		t.Fatalf("clean trace counted %d/%d malformed frames", ms.Malformed(), rs.Malformed())
	}
}

// newFilter builds a deterministic bitmap filter for verdict parity.
func newFilter(t *testing.T) *core.Filter {
	t.Helper()
	f, err := core.New(core.Config{K: 4, NBits: 14, M: 3, DeltaT: time.Second, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// verdictsOf replays packets through a fresh filter with P_d = 1.
func verdictsOf(t *testing.T, pkts []packet.Packet) []core.Verdict {
	t.Helper()
	f := newFilter(t)
	out := make([]core.Verdict, len(pkts))
	for i := range pkts {
		f.Advance(pkts[i].TS)
		out[i] = f.Process(&pkts[i], 1)
	}
	return out
}

// TestMMapVerdictParity replays the same trace through the mapping and
// stream feeds and two identically-seeded filters: the verdict streams
// must be identical.
func TestMMapVerdictParity(t *testing.T) {
	data, _ := tracePcap(t, 8*time.Second, 0.05, 11)

	rs, err := ingest.NewStreamSource(bytes.NewReader(data), testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	fromStream := verdictsOf(t, drain(t, rs))

	ms, err := ingest.NewMemSource(data, testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	fromMMap := verdictsOf(t, drain(t, ms))

	if len(fromStream) != len(fromMMap) {
		t.Fatalf("verdict counts differ: stream %d, mapping %d", len(fromStream), len(fromMMap))
	}
	for i := range fromStream {
		if fromStream[i] != fromMMap[i] {
			t.Fatalf("verdict %d diverged: stream %v, mapping %v", i, fromStream[i], fromMMap[i])
		}
	}
}

// TestMMapTruncatedFile covers every way a mapping can end mid-record:
// inside the record header, inside the frame, and cleanly. The walker
// must never read past the mapping and must surface broken framing as
// an error after delivering the packets before it.
func TestMMapTruncatedFile(t *testing.T) {
	data, pkts := tracePcap(t, 2*time.Second, 0.05, 17)
	if len(pkts) < 10 {
		t.Fatalf("trace too small: %d packets", len(pkts))
	}
	for cut := 1; cut < 200; cut += 13 {
		trunc := data[:len(data)-cut]
		ms, err := ingest.NewMemSource(trunc, testNet, true)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		b := ingest.NewBatch(64)
		var last error
		for {
			n, err := ms.ReadBatch(b)
			got += n
			if err != nil {
				last = err
				break
			}
		}
		if got >= len(pkts) || got == 0 {
			t.Fatalf("cut %d: decoded %d of %d packets", cut, got, len(pkts))
		}
		if errors.Is(last, io.EOF) {
			// The cut landed exactly on a record boundary: a cleanly
			// shorter file, not torn framing.
			continue
		}
		if !errors.Is(last, ingest.ErrTruncatedFile) {
			t.Fatalf("cut %d: got %v, want ErrTruncatedFile", cut, last)
		}
		// The error is sticky.
		if _, err := ms.ReadBatch(b); !errors.Is(err, ingest.ErrTruncatedFile) {
			t.Fatalf("cut %d: error not sticky: %v", cut, err)
		}
	}
}

// TestMMapGarbageHeaders corrupts record headers and frame bytes; the
// walker must count, not panic, and must stop at broken framing.
func TestMMapGarbageHeaders(t *testing.T) {
	data, pkts := tracePcap(t, 2*time.Second, 0.05, 19)

	t.Run("implausible-length", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// First record's inclLen field (global header is 24 bytes,
		// record timestamps are 8).
		bad[24+8] = 0xff
		bad[24+9] = 0xff
		bad[24+10] = 0xff
		bad[24+11] = 0x7f
		ms, err := ingest.NewMemSource(bad, testNet, true)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ms.ReadBatch(ingest.NewBatch(8))
		if n != 0 || !errors.Is(err, ingest.ErrBadRecordLength) {
			t.Fatalf("got n=%d err=%v, want ErrBadRecordLength", n, err)
		}
	})

	t.Run("corrupt-frame-content", func(t *testing.T) {
		// Flip the EtherType of the first frame: the record framing is
		// intact, so the walker skips it and decodes everything else.
		bad := append([]byte(nil), data...)
		bad[24+16+12] = 0xde
		bad[24+16+13] = 0xad
		ms, err := ingest.NewMemSource(bad, testNet, true)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, ms)
		if len(got) != len(pkts)-1 {
			t.Fatalf("decoded %d packets, want %d", len(got), len(pkts)-1)
		}
		if ms.Malformed() != 1 {
			t.Fatalf("Malformed() = %d, want 1", ms.Malformed())
		}
	})

	t.Run("corrupt-checksum", func(t *testing.T) {
		// Flip a payload byte of the first frame: under verification
		// both feeds skip it, and both counters agree.
		bad := append([]byte(nil), data...)
		inclLen := int(uint32(bad[24+8]) | uint32(bad[24+9])<<8 | uint32(bad[24+10])<<16 | uint32(bad[24+11])<<24)
		bad[24+16+inclLen-1] ^= 0xff
		ms, err := ingest.NewMemSource(bad, testNet, true)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, ms)

		rs, err := ingest.NewStreamSource(bytes.NewReader(bad), testNet, true)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, rs)

		if len(got) != len(want) {
			t.Fatalf("mapping decoded %d, stream %d", len(got), len(want))
		}
		if ms.Malformed() != rs.Malformed() {
			t.Fatalf("malformed counts differ: mapping %d, stream %d", ms.Malformed(), rs.Malformed())
		}
		if ms.Malformed() != 1 {
			t.Fatalf("Malformed() = %d, want 1", ms.Malformed())
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 0x00
		if _, err := ingest.NewMemSource(bad, testNet, true); err == nil {
			t.Fatal("bad magic accepted")
		}
	})

	t.Run("short-header", func(t *testing.T) {
		if _, err := ingest.NewMemSource(data[:17], testNet, true); err == nil {
			t.Fatal("truncated global header accepted")
		}
	})
}

// TestMMapReadBatchAllocFree is the alloc guard for the tentpole claim:
// steady-state batch decoding from a mapping allocates nothing — no
// packet, no frame copy, no payload clone.
func TestMMapReadBatchAllocFree(t *testing.T) {
	data, _ := tracePcap(t, 20*time.Second, 0.1, 23)
	ms, err := ingest.NewMemSource(data, testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	b := ingest.NewBatch(0)
	if n, err := ms.ReadBatch(b); n == 0 || err != nil {
		t.Fatalf("warm-up read: n=%d err=%v", n, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ms.ReadBatch(b); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mmap ReadBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// TestReaderSourceAllocFreeSteadyState pins the stream feed at zero
// allocations per batch once reading is under way: payloads alias the
// window, and the window is refilled in place.
func TestReaderSourceAllocFreeSteadyState(t *testing.T) {
	pkts := make([]packet.Packet, 4096)
	payload := bytes.Repeat([]byte{0xab}, 64)
	for i := range pkts {
		dir := packet.Outbound
		src := packet.AddrFrom4(140, 112, 1, byte(i))
		dst := packet.AddrFrom4(9, 9, byte(i>>8), byte(i))
		if i%2 == 1 {
			dir = packet.Inbound
			src, dst = dst, src
		}
		pkts[i] = packet.Packet{
			TS: time.Duration(i) * time.Millisecond,
			Pair: packet.SocketPair{
				Proto:   packet.TCP,
				SrcAddr: src, SrcPort: 1000 + uint16(i%100),
				DstAddr: dst, DstPort: 6881,
			},
			Dir: dir, Len: 40 + len(payload), Flags: packet.ACK, Payload: payload,
		}
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, pkts, 0, time.Unix(1_163_580_000, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := ingest.NewStreamSource(bytes.NewReader(buf.Bytes()), testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	b := ingest.NewBatch(256)
	for i := 0; i < 2; i++ {
		if n, err := rs.ReadBatch(b); n == 0 || err != nil {
			t.Fatalf("warm-up read %d: n=%d err=%v", i, n, err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rs.ReadBatch(b); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// TestOpenMMapFile exercises the real file path (mmap on linux, the
// stream feed elsewhere) end to end.
func TestOpenMMapFile(t *testing.T) {
	data, pkts := tracePcap(t, 3*time.Second, 0.05, 29)
	path := t.TempDir() + "/trace.pcap"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := ingest.OpenMMap(path, testNet, true)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, ms)
	if len(got) != len(pkts) {
		t.Fatalf("decoded %d packets, want %d", len(got), len(pkts))
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and the source stays terminal.
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := ms.ReadBatch(ingest.NewBatch(8)); n != 0 || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("ReadBatch after Close = %d, %v; want 0, os.ErrClosed", n, err)
	}
	if _, err := ingest.OpenMMap(path+".missing", testNet, true); err == nil {
		t.Fatal("missing file accepted")
	}
}
