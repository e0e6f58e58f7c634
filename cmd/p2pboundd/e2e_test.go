package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

// syncBuffer makes the daemon's output readable from the test goroutine
// while runSig is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunServesMetricsMidReplay is the end-to-end observability smoke
// test: the daemon reads from a FIFO (so the replay genuinely blocks
// mid-stream), the test scrapes /metrics, /metrics.json, and
// /debug/pprof/ while packets are still pending, then delivers a signal
// and verifies the graceful exit also shuts the HTTP server down.
func TestRunServesMetricsMidReplay(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "in.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}

	tr, err := trace.Generate(trace.DefaultConfig(15*time.Second, 0.03, 51))
	if err != nil {
		t.Fatal(err)
	}

	sigc := make(chan os.Signal, 1)
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- runSig([]string{
			"-i", fifo,
			"-net", "140.112.0.0/16",
			"-low", "0.5", "-high", "1",
			"-quiet", "-report", "0s",
			"-listen", "127.0.0.1:0",
			"-trace-every", "1",
		}, out, sigc)
	}()

	// Opening the write side unblocks the daemon's open of the read side.
	// All but the last packet go in up front; the FIFO then stays open, so
	// the daemon blocks in ReadPacket with its HTTP server live.
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := time.Date(2006, 11, 15, 9, 0, 0, 0, time.UTC)
	pw, err := pcap.NewWriter(w, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets[:len(tr.Packets)-1] {
		if err := pw.WritePacket(&tr.Packets[i]); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, "listen address line", func() bool {
		return strings.Contains(out.String(), "metrics on http://")
	})
	line := out.String()
	start := strings.Index(line, "metrics on http://") + len("metrics on ")
	url := strings.TrimSpace(strings.SplitN(line[start:], "\n", 2)[0])
	url = strings.TrimSuffix(url, "/metrics")

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Scrape mid-replay: packet counters are live while the input blocks.
	waitFor(t, "nonzero packet counter", func() bool {
		_, body := get("/metrics")
		return strings.Contains(body, `p2pbound_packets_total{dir="outbound",shard="0"}`) &&
			!strings.Contains(body, `p2pbound_packets_total{dir="outbound",shard="0"} 0`)
	})
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "# TYPE p2pbound_pd gauge") ||
		!strings.Contains(body, "p2pbound_uplink_bytes_total") {
		t.Fatalf("bad /metrics response (%d):\n%s", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"p2pbound_packets_total"`) {
		t.Fatalf("bad /metrics.json response (%d):\n%s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("bad /debug/pprof/ response (%d):\n%s", code, body)
	}

	// Wait until the daemon has decided every packet written so far —
	// each counts once as outbound, inbound or unroutable — so it is
	// blocked in its read, not still deciding, when the signal lands.
	decided := func() int {
		_, body := get("/metrics")
		n := 0
		for _, line := range strings.Split(body, "\n") {
			for _, series := range []string{
				`p2pbound_packets_total{dir="outbound",shard="0"} `,
				`p2pbound_packets_total{dir="inbound",shard="0"} `,
				`p2pbound_unroutable_total{shard="0"} `,
			} {
				if v, ok := strings.CutPrefix(line, series); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("scraped %q: %v", line, err)
					}
					n += int(f)
				}
			}
		}
		return n
	}
	waitFor(t, "every written packet decided", func() bool {
		return decided() == len(tr.Packets)-1
	})

	// Deliver the signal while the daemon is blocked reading, then feed
	// one final packet so the read returns and the loop reaches its
	// shutdown check — the polling latch always lands on a packet
	// boundary. A daemon that sees the stop between its last flush and
	// its next read closes the FIFO first, so the write may find the
	// pipe broken.
	sigc <- os.Interrupt
	if err := pw.WritePacket(&tr.Packets[len(tr.Packets)-1]); err != nil && !errors.Is(err, syscall.EPIPE) {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("runSig: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop after signal")
	}
	if !strings.Contains(out.String(), "signal: stopping:") {
		t.Fatalf("missing graceful-stop line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "TRACE t=") {
		t.Fatalf("missing sampled drop trace lines:\n%s", out.String())
	}

	// The deferred shutdown closed the listener with the daemon.
	if _, err := http.Get(url + "/metrics"); err == nil {
		t.Fatal("metrics server still reachable after graceful shutdown")
	}
}
