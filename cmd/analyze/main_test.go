package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

func writeTestPcap(t *testing.T) string {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig(5*time.Second, 0.02, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)
	if err := pcap.WriteAll(f, tr.Packets, 0, base); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalyzesPcap(t *testing.T) {
	path := writeTestPcap(t)
	if err := run([]string{"-i", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithoutVerification(t *testing.T) {
	path := writeTestPcap(t)
	if err := run([]string{"-i", path, "-verify=false"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSkipsNonIPv4Frames: a real capture carries ARP, ICMP and IPv6
// frames between the TCP/UDP packets; the analyzer skips them, as the
// daemon and the replayer do, rather than failing on the first one.
func TestRunSkipsNonIPv4Frames(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(5*time.Second, 0.02, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, tr.Packets, 0, time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	eth := func(ethertype uint16, body ...byte) []byte {
		return append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 1, byte(ethertype >> 8), byte(ethertype)}, body...)
	}
	arp := eth(0x0806, 0, 1, 8, 0, 6, 4, 0, 1, 2, 0, 0, 0, 0, 1, 140, 112, 3, 4, 0, 0, 0, 0, 0, 0, 140, 112, 3, 1)
	icmp := eth(0x0800, 0x45, 0, 0, 28, 0, 0, 0x40, 0, 64, 1, 0, 0, 140, 112, 3, 4, 61, 2, 3, 4, 8, 0, 0xf7, 0xff, 0, 0, 0, 0)
	ipv6 := eth(0x86dd, append([]byte{0x60, 0, 0, 0, 0, 0, 59, 64}, make([]byte, 32)...)...)
	others := [][]byte{arp, icmp, ipv6}

	raw := buf.Bytes()
	out := append([]byte(nil), raw[:24]...)
	for off, i := 24, 0; off < len(raw); i++ {
		end := off + 16 + int(binary.LittleEndian.Uint32(raw[off+8:]))
		out = append(out, raw[off:end]...)
		if i%10 == 0 {
			frame := others[i/10%len(others)]
			hdr := append([]byte(nil), raw[off:off+16]...) // the same capture time
			binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
			binary.LittleEndian.PutUint32(hdr[12:], uint32(len(frame)))
			out = append(append(out, hdr...), frame...)
		}
		off = end
	}
	path := filepath.Join(t.TempDir(), "mixed.pcap")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []string{"-verify=true", "-verify=false"} {
		if err := run([]string{"-i", path, verify}); err != nil {
			t.Fatalf("%s: %v", verify, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -i accepted")
	}
	if err := run([]string{"-i", "missing.pcap"}); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeTestPcap(t)
	if err := run([]string{"-i", path, "-net", "garbage"}); err == nil {
		t.Fatal("bad network accepted")
	}
}
