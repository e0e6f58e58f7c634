package ingest_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/iotest"
	"time"

	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
)

// fuzzSeeds builds the interesting capture shapes: a valid trace, a
// torn one, corrupted frame content, a corrupted record header, and a
// byte-swapped (big-endian) file.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	pkts := []packet.Packet{
		{
			TS: 0,
			Pair: packet.SocketPair{
				Proto:   packet.TCP,
				SrcAddr: packet.AddrFrom4(140, 112, 1, 1), SrcPort: 40000,
				DstAddr: packet.AddrFrom4(8, 8, 8, 8), DstPort: 6881,
			},
			Dir: packet.Outbound, Len: 60, Flags: packet.SYN | packet.ACK,
			Payload: []byte("\x13BitTorrent protocol"),
		},
		{
			TS: 750 * time.Millisecond,
			Pair: packet.SocketPair{
				Proto:   packet.UDP,
				SrcAddr: packet.AddrFrom4(9, 9, 9, 9), SrcPort: 53,
				DstAddr: packet.AddrFrom4(140, 112, 1, 1), DstPort: 5353,
			},
			Dir: packet.Inbound, Len: 40,
			Payload: []byte{1, 2, 3},
		},
		{
			TS: 2 * time.Second,
			Pair: packet.SocketPair{
				Proto:   packet.TCP,
				SrcAddr: packet.AddrFrom4(140, 112, 1, 2), SrcPort: 50123,
				DstAddr: packet.AddrFrom4(7, 7, 7, 7), DstPort: 443,
			},
			Dir: packet.Outbound, Len: 52, Flags: packet.FIN | packet.ACK,
		},
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, pkts, 0, time.Unix(1_163_000_000, 0)); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	badtype := append([]byte(nil), valid...)
	badtype[24+16+12] ^= 0xff // first frame's EtherType
	badlen := append([]byte(nil), valid...)
	badlen[24+10] = 0xff // first record's inclLen high bytes
	return map[string][]byte{
		"seed-valid":     valid,
		"seed-truncated": valid[:len(valid)-5],
		"seed-badtype":   badtype,
		"seed-badlen":    badlen,
		"seed-bigendian": swapPcap(valid),
		"seed-header":    valid[:24],
		"seed-empty":     {},
	}
}

// swapPcap converts a little-endian pcap file to big-endian by
// byte-swapping the global and record header fields (frame bytes are
// endian-free). Assumes the input is well-formed.
func swapPcap(data []byte) []byte {
	out := append([]byte(nil), data...)
	swap32 := func(off int) {
		out[off], out[off+1], out[off+2], out[off+3] = out[off+3], out[off+2], out[off+1], out[off]
	}
	swap16 := func(off int) { out[off], out[off+1] = out[off+1], out[off] }
	swap32(0)
	swap16(4)
	swap16(6)
	swap32(8)
	swap32(12)
	swap32(16)
	swap32(20)
	off := 24
	for off+16 <= len(out) {
		inclLen := int(uint32(out[off+8]) | uint32(out[off+9])<<8 | uint32(out[off+10])<<16 | uint32(out[off+11])<<24)
		swap32(off)
		swap32(off + 4)
		swap32(off + 8)
		swap32(off + 12)
		off += 16 + inclLen
	}
	return out
}

// FuzzMMapWalk is the differential fuzz target over the record
// walker's feeds: on arbitrary bytes, the capture walked in place, the
// capture streamed through a window and the capture streamed one byte
// per Read must accept the same headers, decode the same packets, skip
// the same frames, count the same clock regressions and reach the same
// terminal condition — and none may panic or read out of bounds.
func FuzzMMapWalk(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{false, true} {
			want := walkOutcome("input", data, verify, feeds[0].open)
			for _, feed := range feeds[1:] {
				if got := walkOutcome("input", data, verify, feed.open); got != want {
					t.Fatalf("%s feed diverged from the mapping:\n got %s\nwant %s", feed.name, got, want)
				}
			}
		}
	})
}

// feeds are the ways a capture reaches the record walker: the whole
// capture in memory, as a mapped file is, and a stream read through a
// window, in large reads and one byte per Read.
var feeds = []struct {
	name string
	open func(data []byte, verify bool) (*ingest.Source, error)
}{
	{"mapping", func(data []byte, verify bool) (*ingest.Source, error) {
		return ingest.NewMemSource(data, testNet, verify)
	}},
	{"stream", func(data []byte, verify bool) (*ingest.Source, error) {
		return ingest.NewStreamSource(bytes.NewReader(data), testNet, verify)
	}},
	{"one-byte", func(data []byte, verify bool) (*ingest.Source, error) {
		return ingest.NewStreamSource(iotest.OneByteReader(bytes.NewReader(data)), testNet, verify)
	}},
}

// walkOutcome reads data to its end through open and formats what the
// walk golden records: header acceptance, the packet count and digest,
// the malformed and clock-regression counts and the terminal condition.
func walkOutcome(name string, data []byte, verify bool, open func([]byte, bool) (*ingest.Source, error)) string {
	src, err := open(data, verify)
	if err != nil {
		return fmt.Sprintf("%s verify=%t header=rejected", name, verify)
	}
	pkts, err := drainAll(src)
	end := "eof"
	switch {
	case errors.Is(err, ingest.ErrTruncatedFile):
		end = "truncated"
	case errors.Is(err, ingest.ErrBadRecordLength):
		end = "bad-record-length"
	case err != nil:
		end = err.Error()
	}
	return goldenLine(name, verify, pkts, src.Malformed(), src.ClockRegressions(), end)
}

// drainAll reads src to exhaustion, cloning packets, and returns the
// terminal error (nil for a clean io.EOF end).
func drainAll(src *ingest.Source) ([]packet.Packet, error) {
	b := ingest.NewBatch(64)
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
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
	}
}

// TestRegenIngestFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzMMapWalk, mirroring the f.Add seeds so a cold
// checkout exercises the interesting capture shapes without the
// mutation engine. Run with
//
//	P2PBOUND_REGEN_CORPUS=1 go test -run TestRegenIngestFuzzCorpus ./internal/ingest
//
// after changing the capture format, and commit the result.
func TestRegenIngestFuzzCorpus(t *testing.T) {
	if os.Getenv("P2PBOUND_REGEN_CORPUS") == "" {
		t.Skip("set P2PBOUND_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMMapWalk")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
