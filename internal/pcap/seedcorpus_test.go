package pcap

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"p2pbound/internal/packet"
)

// TestRegenFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzReadPacket, mirroring the f.Add seeds so a cold
// checkout exercises the interesting capture shapes without the
// mutation engine. Run with
//
//	P2PBOUND_REGEN_CORPUS=1 go test -run TestRegenFuzzCorpus ./internal/pcap
//
// after changing the capture format, and commit the result.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("P2PBOUND_REGEN_CORPUS") == "" {
		t.Skip("set P2PBOUND_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
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
		t.Fatal(err)
	}
	valid := buf.Bytes()
	badmagic := append([]byte(nil), valid...)
	badmagic[0] ^= 0xff
	negativeLen, err := hex.DecodeString(negativeLenCapture)
	if err != nil {
		t.Fatal(err)
	}
	writeSeedCorpus(t, filepath.Join("testdata", "fuzz", "FuzzReadPacket"), map[string][]byte{
		"seed-valid":        valid,
		"seed-truncated":    valid[:30],
		"seed-badmagic":     badmagic,
		"seed-empty":        {},
		"seed-negative-len": negativeLen,
	})
}

// writeSeedCorpus writes each entry in the `go test fuzz v1` format the
// fuzzing engine loads from testdata/fuzz/<FuzzName>/.
func writeSeedCorpus(t *testing.T, dir string, seeds map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
