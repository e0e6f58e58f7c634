package p2pbound

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

// TestSubmitIngestMatchesSubmitBatch pins the ingest producer path to
// the slice path: draining a capture through submitIngest must yield
// exactly the verdict totals of SubmitBatch over the same packets.
func TestSubmitIngestMatchesSubmitBatch(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(20*time.Second, 0.02, 17))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, tr.Packets, 0, time.Unix(1_163_000_000, 0)); err != nil {
		t.Fatal(err)
	}
	clientNet := packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)
	cfg := Config{ClientNetwork: testNet, LowMbps: 0.1, HighMbps: 0.5, Seed: 3}

	// The reference packets are the round-tripped ones: pcap framing
	// truncates timestamps to microseconds, and both paths must see the
	// same clock to make the same verdicts.
	decoded, err := pcap.ReadAll(bytes.NewReader(buf.Bytes()), clientNet, false)
	if err != nil {
		t.Fatal(err)
	}

	run := func(submit func(t *testing.T, p *Pipeline) int64) (int64, int64, int64) {
		p, err := NewPipeline(cfg, PipelineConfig{Shards: 1, RingSize: 512, BatchSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		n := submit(t, p)
		p.Close()
		passed, dropped := p.Verdicts()
		return n, passed, dropped
	}

	wantN, wantPassed, wantDropped := run(func(t *testing.T, p *Pipeline) int64 {
		p.SubmitBatch(toPublic(decoded))
		return int64(len(decoded))
	})
	check := func(name string, gotN, gotPassed, gotDropped int64) {
		t.Helper()
		if gotN != wantN {
			t.Fatalf("%s submitted %d packets, SubmitBatch %d", name, gotN, wantN)
		}
		if gotPassed != wantPassed || gotDropped != wantDropped {
			t.Fatalf("%s verdicts diverged: %d/%d, batch %d/%d",
				name, gotPassed, gotDropped, wantPassed, wantDropped)
		}
		if gotPassed+gotDropped != gotN {
			t.Fatalf("%s verdict total %d != submitted %d", name, gotPassed+gotDropped, gotN)
		}
	}

	n, passed, dropped := run(func(t *testing.T, p *Pipeline) int64 {
		src, err := ingest.NewMemSource(buf.Bytes(), clientNet, false)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.submitIngest(src)
		if err != nil {
			t.Fatalf("submitIngest: %v", err)
		}
		return n
	})
	check("submitIngest", n, passed, dropped)

	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	n, passed, dropped = run(func(t *testing.T, p *Pipeline) int64 {
		n, err := p.SubmitPcapFile(path)
		if err != nil {
			t.Fatalf("SubmitPcapFile: %v", err)
		}
		return n
	})
	check("SubmitPcapFile", n, passed, dropped)

	n, passed, dropped = run(func(t *testing.T, p *Pipeline) int64 {
		n, err := p.SubmitPcapStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("SubmitPcapStream: %v", err)
		}
		return n
	})
	check("SubmitPcapStream", n, passed, dropped)
}

// TestSubmitPcapFileStreamsFIFO: SubmitPcapFile on a FIFO streams it,
// submitting the same packets, with the same verdicts and stats, as
// SubmitPcapStream over the same bytes.
func TestSubmitPcapFileStreamsFIFO(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(10*time.Second, 0.02, 23))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, tr.Packets, 0, time.Unix(1_163_000_000, 0)); err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(t.TempDir(), "capture.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}
	cfg := Config{ClientNetwork: testNet, LowMbps: 0.1, HighMbps: 0.5, Seed: 3}
	run := func(submit func(p *Pipeline) (int64, error)) (int64, int64, int64, Stats) {
		t.Helper()
		p, err := NewPipeline(cfg, PipelineConfig{Shards: 2, RingSize: 512, BatchSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		n, err := submit(p)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		passed, dropped := p.Verdicts()
		return n, passed, dropped, p.Stats()
	}

	wantN, wantPassed, wantDropped, wantStats := run(func(p *Pipeline) (int64, error) {
		return p.SubmitPcapStream(bytes.NewReader(buf.Bytes()))
	})
	if wantN != int64(len(tr.Packets)) {
		t.Fatalf("SubmitPcapStream submitted %d of %d packets", wantN, len(tr.Packets))
	}

	werr := make(chan error, 1)
	go func() {
		// Opening the write side blocks until SubmitPcapFile opens the
		// read side.
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			werr <- err
			return
		}
		_, err = w.Write(buf.Bytes())
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		werr <- err
	}()
	n, passed, dropped, stats := run(func(p *Pipeline) (int64, error) { return p.SubmitPcapFile(fifo) })
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if n != wantN || passed != wantPassed || dropped != wantDropped {
		t.Fatalf("FIFO: n=%d verdicts %d/%d; stream: n=%d verdicts %d/%d",
			n, passed, dropped, wantN, wantPassed, wantDropped)
	}
	if stats != wantStats {
		t.Fatalf("FIFO stats %+v, stream %+v", stats, wantStats)
	}
}
