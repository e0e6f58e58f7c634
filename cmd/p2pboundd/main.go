// Command p2pboundd is the deployment form of the limiter: it consumes a
// pcap stream (a file, or tcpdump piped to stdin), runs every packet
// through a p2pbound.Limiter, and emits the verdict stream plus periodic
// statistics. With -state it restores the bitmap filter from a previous
// snapshot on startup and writes a fresh snapshot on exit, so restarts
// keep admitting tracked flows.
//
// The daemon is built to run unattended at the network edge:
//
//   - A corrupt, truncated, or geometry-mismatched snapshot is reported
//     and degraded to a cold start — never a refusal to boot.
//   - -snapshot writes periodic atomic snapshots (trace time), so a
//     crash or SIGKILL loses at most one interval of admission state.
//   - SIGINT/SIGTERM trigger a graceful shutdown: the pending batch is
//     flushed, the final stats line is printed, and the state file is
//     written before exit.
//   - A mid-stream read error still flushes pending packets and reports
//     final stats, so an aborted run tells you what it decided.
//
// Usage:
//
//	tcpdump -i eth0 -w - | p2pboundd -net 140.112.0.0/16 -low 50 -high 100
//	p2pboundd -i trace.pcap -net 140.112.0.0/16 -state /var/lib/p2pbound.state
//
// Output: one line per dropped packet (suppress with -quiet) and a stats
// line every -report interval of trace time.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"p2pbound"
	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p2pboundd:", err)
		os.Exit(1)
	}
}

// run wires OS signals and delegates to runSig, the testable core.
func run(args []string, out io.Writer) error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	return runSig(args, out, sigc)
}

func runSig(args []string, out io.Writer, sigc <-chan os.Signal) error {
	fs := flag.NewFlagSet("p2pboundd", flag.ContinueOnError)
	var (
		in         = fs.String("i", "-", "input pcap path, or - for stdin")
		netCIDR    = fs.String("net", "", "client network CIDR (required)")
		lowMbps    = fs.Float64("low", 50, "P_d low threshold L in Mbps")
		highMbps   = fs.Float64("high", 100, "P_d high threshold H in Mbps")
		holePunch  = fs.Bool("holepunch", false, "partial-tuple hashing for NAT traversal")
		statePath  = fs.String("state", "", "bitmap snapshot file: restored on start, written on exit")
		stateAdopt = fs.Bool("state-adopt", false, "adopt a snapshot whose geometry differs from the configured one")
		snapEvery  = fs.Duration("snapshot", 0, "trace-time interval between periodic state snapshots (0 = only on exit)")
		report     = fs.Duration("report", 10*time.Second, "trace-time interval between stats lines")
		quiet      = fs.Bool("quiet", false, "do not print per-drop lines")
		seed       = fs.Uint64("seed", 0, "seed for probabilistic drops")
		tolerance  = fs.Duration("reorder-tolerance", 10*time.Millisecond, "capture reorder window before a backward timestamp counts as an anomaly")
		stopAfter  = fs.Int64("stop-after", 0, "gracefully stop after N packets, as if signalled (0 = run to EOF)")
		listen     = fs.String("listen", "", "serve /metrics, /metrics.json, and /debug/pprof/ on this address (empty = disabled)")
		peers      = fs.Int("peers", 1, "in-process replicated fleet size: shard the stream across N limiters synced after every batch (1 = single limiter)")
		traceEvery = fs.Int("trace-every", 0, "print a TRACE line for every Nth dropped packet (0 = disabled)")

		offloadPath  = fs.String("offload-map", "", "publish the kernel-offload flat verdict map to this file (written atomically), for an external fast-path stage to probe")
		offloadEvery = fs.Duration("offload-every", time.Second, "trace-time interval between -offload-map publications")

		tenantsPath = fs.String("tenants", "", "multi-tenant mode: file of subscriber networks, one '[id] CIDR' per line; runs a TenantManager instead of a single limiter (-net then only classifies capture direction)")
		tenantBits  = fs.Int("tenant-prefix", 24, "uniform subscriber prefix length for -tenants")
		tenantEvict = fs.Duration("tenant-evict", 0, "spill tenants idle for this much trace time after every batch (0 = never evict)")
		aggLow      = fs.Float64("agg-low", 0, "aggregate uplink low threshold in Mbps: hierarchical RED across all -tenants (0 with -agg-high 0 = disabled)")
		aggHigh     = fs.Float64("agg-high", 0, "aggregate uplink high threshold in Mbps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netCIDR == "" {
		return errors.New("missing -net client network")
	}
	clientNet, err := packet.ParseNetwork(*netCIDR)
	if err != nil {
		return err
	}

	cfg := p2pbound.Config{
		ClientNetwork:    *netCIDR,
		LowMbps:          *lowMbps,
		HighMbps:         *highMbps,
		HolePunch:        *holePunch,
		Seed:             *seed,
		ReorderTolerance: *tolerance,
	}
	var tel *p2pbound.Telemetry
	if *listen != "" {
		tel = p2pbound.NewTelemetry()
		cfg.Telemetry = tel
	}
	if *traceEvery > 0 {
		cfg.TraceEveryN = *traceEvery
		cfg.TraceFunc = func(tr p2pbound.DropTrace) {
			// Runs synchronously on the processing goroutine, so it shares
			// out with the drop and stats lines without extra locking.
			fmt.Fprintf(out, "TRACE t=%v proto=%d %s:%d->%s:%d pd=%.3f uplink=%.2fMbps epoch=%d\n",
				tr.Timestamp, tr.Protocol, tr.SrcAddr, tr.SrcPort, tr.DstAddr, tr.DstPort,
				tr.Pd, tr.UplinkMbps, tr.Epoch)
		}
	}
	var (
		limiter *p2pbound.Limiter
		fleet   *p2pbound.Fleet
		mgr     *p2pbound.TenantManager
		stats   func() p2pbound.Stats
		uplink  func() float64
		dropPd  func() float64
	)
	switch {
	case *peers < 1:
		return fmt.Errorf("-peers must be positive, got %d", *peers)
	case *tenantsPath != "" && *peers > 1:
		return errors.New("-tenants and -peers are mutually exclusive: a tenant shard is already a single-writer island")
	case *tenantsPath != "":
		tcs, err := loadTenants(*tenantsPath)
		if err != nil {
			return err
		}
		m, err := p2pbound.NewTenantManager(p2pbound.TenantManagerConfig{
			Tenant:            cfg,
			PrefixBits:        *tenantBits,
			AggregateLowMbps:  *aggLow,
			AggregateHighMbps: *aggHigh,
			Telemetry:         tel,
		})
		if err != nil {
			return err
		}
		if err := m.AddTenants(tcs); err != nil {
			return err
		}
		mgr = m
		// The per-report line in tenant mode comes from mgr.Stats; the
		// final accounting sums the population.
		stats = func() p2pbound.Stats {
			var sum p2pbound.Stats
			for _, id := range m.TenantIDs() {
				s, _ := m.TenantStats(id)
				sum.OutboundPackets += s.OutboundPackets
				sum.InboundPackets += s.InboundPackets
				sum.InboundMatched += s.InboundMatched
				sum.InboundUnmatched += s.InboundUnmatched
				sum.Dropped += s.Dropped
				sum.Rotations += s.Rotations
				sum.Unroutable += s.Unroutable
				sum.TimeAnomalies += s.TimeAnomalies
			}
			return sum
		}
		uplink = func() float64 { return 0 }
		dropPd = func() float64 { return 0 }
		fmt.Fprintf(out, "multi-tenant edge: %d subscribers (/%d each)\n", len(tcs), *tenantBits)
	case *peers > 1:
		// Fleet mode: the stream is sharded across replicated members
		// over an in-process loopback transport, synced after every
		// batch. Snapshot restore is a single-box workflow — a fleet
		// member rejoins empty and heals via anti-entropy repair — so
		// -state is rejected rather than silently ignored.
		if *statePath != "" {
			return errors.New("-state is not supported with -peers: a fleet member rejoins empty and heals via repair")
		}
		fl, err := p2pbound.NewFleet(cfg, p2pbound.FleetConfig{Replicas: *peers, DigestEvery: 1})
		if err != nil {
			return err
		}
		fleet = fl
		stats = fl.Stats
		uplink = func() float64 {
			total := 0.0
			for i := 0; i < fl.Replicas(); i++ {
				total += fl.Limiter(i).UplinkMbps()
			}
			return total
		}
		dropPd = func() float64 { return fl.Limiter(0).DropProbability() }
		// Two lossless loopback rounds exchange the empty-state digests
		// so every member is Ready before the first packet.
		fl.Sync()
		fl.Sync()
	default:
		l, err := p2pbound.New(cfg)
		if err != nil {
			return err
		}
		limiter = l
		stats, uplink, dropPd = l.Stats, l.UplinkMbps, l.DropProbability
	}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: tel.Handler()}
		go func() {
			if serveErr := srv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "p2pboundd: metrics server: %v\n", serveErr)
			}
		}()
		// Graceful HTTP shutdown on every exit path (EOF, signal, read
		// error): in-flight scrapes finish, then the listener closes.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if shutErr := srv.Shutdown(ctx); shutErr != nil {
				srv.Close()
			}
		}()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", ln.Addr())
	}
	// The offload map publishes from the processing goroutine between
	// batches — the single-writer position Section.Publish requires —
	// then lands on disk through the same atomic tmp+rename as state
	// snapshots, so an external fast-path consumer never maps a torn
	// file.
	var publishOffload func() error
	if *offloadPath != "" {
		switch {
		case fleet != nil:
			return errors.New("-offload-map is not supported with -peers: publish from one member's own daemon instead")
		case mgr != nil:
			to, err := mgr.NewOffload()
			if err != nil {
				return err
			}
			publishOffload = func() error {
				if err := to.Publish(); err != nil {
					return err
				}
				return writeSnapshotAtomic(*offloadPath, func(w io.Writer) error {
					_, err := to.Map().WriteTo(w)
					return err
				})
			}
		default:
			om, err := limiter.NewOffloadMap()
			if err != nil {
				return err
			}
			publishOffload = func() error {
				if err := limiter.PublishOffload(om); err != nil {
					return err
				}
				return writeSnapshotAtomic(*offloadPath, func(w io.Writer) error {
					_, err := om.WriteTo(w)
					return err
				})
			}
		}
	}
	if *statePath != "" {
		restore := func() error { return restoreState(limiter, *statePath, *stateAdopt) }
		if mgr != nil {
			restore = func() error { return restoreTenantState(mgr, *statePath) }
		}
		switch restoreErr := restore(); {
		case restoreErr == nil:
			fmt.Fprintf(out, "restored state from %s\n", *statePath)
		case errors.Is(restoreErr, os.ErrNotExist):
			// First boot: nothing to restore.
		default:
			// A corrupt or mismatched snapshot must not keep the edge
			// from booting: report it and degrade to a cold start. The
			// filter challenges unmatched inbound traffic for the first
			// T_e, exactly as on first boot.
			fmt.Fprintf(os.Stderr, "p2pboundd: state restore failed (%v); cold start\n", restoreErr)
		}
	}

	// A regular file is mapped and walked in place; stdin and FIFOs (a
	// live tcpdump pipe) are read through a refilled window. Both deliver
	// decoded batches, so the daemon never holds more than one batch of
	// packets regardless of capture size.
	var src *ingest.Source
	if *in == "-" {
		src, err = ingest.NewStreamSource(os.Stdin, clientNet, false)
	} else {
		src, err = ingest.Open(*in, clientNet, false)
	}
	if err != nil {
		return err
	}
	defer src.Close()

	// Each ingest batch is decided through Limiter.ProcessBatch — the
	// amortized hot path — reusing the same translation and verdict
	// slices for the life of the stream so steady state does not
	// allocate. The ingest batch itself doubles as the raw-packet view
	// for the drop and stats lines.
	const batchCap = 512
	var (
		total, dropped int64
		readCount      int64
		nextReport     = *report
		nextSnap       = *snapEvery
		nextOffload    = *offloadEvery
		b              = ingest.NewBatch(batchCap)
		batch          = make([]p2pbound.Packet, 0, batchCap)
		verdicts       = make([]p2pbound.Decision, 0, batchCap)
	)
	save := func() error {
		if mgr != nil {
			return saveTenantStateFn(mgr, *statePath)
		}
		return saveStateFn(limiter, *statePath)
	}
	snapshot := func() {
		if *statePath == "" {
			return
		}
		if err := save(); err != nil {
			// A failed periodic snapshot is an operational warning, not
			// a reason to stop filtering: the previous snapshot is still
			// intact because saveState writes atomically.
			fmt.Fprintf(os.Stderr, "p2pboundd: periodic snapshot failed: %v\n", err)
		}
	}
	flush := func(raw []packet.Packet) {
		batch = batch[:0]
		for i := range raw {
			pkt := &raw[i]
			batch = append(batch, p2pbound.Packet{
				Timestamp: pkt.TS,
				Protocol:  p2pbound.Protocol(pkt.Pair.Proto),
				SrcAddr:   toNetip(pkt.Pair.SrcAddr), SrcPort: pkt.Pair.SrcPort,
				DstAddr: toNetip(pkt.Pair.DstAddr), DstPort: pkt.Pair.DstPort,
				Size: pkt.Len,
			})
		}
		switch {
		case fleet != nil:
			// Verdicts stay in arrival order: each packet is decided on
			// the member its connection hashes to, then one sync round
			// replicates the batch's marks fleet-wide.
			verdicts = verdicts[:0]
			for i := range batch {
				verdicts = append(verdicts, fleet.Process(batch[i]))
			}
			fleet.Sync()
		case mgr != nil:
			verdicts = mgr.ProcessBatch(batch, verdicts[:0])
			if *tenantEvict > 0 {
				// Between batches is the single-writer window; idle
				// tenants spill their filters and recycle their vectors.
				mgr.EvictIdle(*tenantEvict)
			}
		default:
			verdicts = limiter.ProcessBatch(batch, verdicts[:0])
		}
		snapDue := false
		offloadDue := false
		for i, decision := range verdicts {
			pkt := &raw[i]
			total++
			if decision == p2pbound.Drop {
				dropped++
				if !*quiet {
					fmt.Fprintf(out, "DROP %v %s\n", pkt.TS, pkt.Pair)
				}
			}
			if *report > 0 && pkt.TS >= nextReport {
				s := stats()
				if mgr != nil {
					ms := mgr.Stats()
					fmt.Fprintf(out, "stats t=%v packets=%d dropped=%d tenants=%d hydrated=%d evictions=%d spill=%dKiB matched=%d anomalies=%d\n",
						pkt.TS.Truncate(time.Second), total, dropped,
						ms.Tenants, ms.Hydrated, ms.Evictions, ms.SpillBytes/1024,
						s.InboundMatched, s.TimeAnomalies)
				} else {
					fmt.Fprintf(out, "stats t=%v packets=%d dropped=%d uplink=%.2fMbps pd=%.2f matched=%d unroutable=%d anomalies=%d\n",
						pkt.TS.Truncate(time.Second), total, dropped,
						uplink(), dropPd(), s.InboundMatched, s.Unroutable, s.TimeAnomalies)
				}
				for pkt.TS >= nextReport {
					nextReport += *report
				}
			}
			if *snapEvery > 0 && pkt.TS >= nextSnap {
				snapDue = true
				for pkt.TS >= nextSnap {
					nextSnap += *snapEvery
				}
			}
			if publishOffload != nil && *offloadEvery > 0 && pkt.TS >= nextOffload {
				offloadDue = true
				for pkt.TS >= nextOffload {
					nextOffload += *offloadEvery
				}
			}
		}
		// Snapshot after the batch so the state file reflects every
		// verdict already reported.
		if snapDue {
			snapshot()
		}
		if offloadDue {
			if err := publishOffload(); err != nil {
				// Like a failed periodic snapshot: the previous map file
				// is intact, the fast path just runs staler — which only
				// costs escalations, never verdicts.
				fmt.Fprintf(os.Stderr, "p2pboundd: offload map publish failed: %v\n", err)
			}
		}
	}
	// finish emits the final accounting line; it is shared by the EOF,
	// signal, and read-error exits so an aborted run reports exactly
	// like a completed one. (Every decoded batch is flushed before the
	// exits run, so there is no pending work to drain.)
	finish := func(reason string) {
		s := stats()
		fmt.Fprintf(out, "%s: %d packets, %d dropped, %d matched, %d anomalies, %d clock regressions\n",
			reason, total, dropped, s.InboundMatched, s.TimeAnomalies, src.ClockRegressions())
	}
	saveFinal := func() error {
		if publishOffload != nil {
			// Final publish so the on-disk map covers every decided
			// packet; a consumer restarted after the daemon exits probes
			// the complete state.
			if err := publishOffload(); err != nil {
				fmt.Fprintf(os.Stderr, "p2pboundd: final offload map publish failed: %v\n", err)
			}
		}
		if *statePath == "" {
			return nil
		}
		return save()
	}
	// Graceful-shutdown latch: a pending signal or -stop-after trips it;
	// the loop checks it between packets so shutdown always lands on a
	// packet boundary with the batch flushed and the state file written.
	// (Polling is exact here: a signal can't interrupt a blocked pcap
	// read anyway, so a watcher goroutine would add races, not latency.)
	stopping := false
	for {
		select {
		case <-sigc:
			stopping = true
		default:
		}
		if stopping {
			finish("signal: stopping")
			return saveFinal()
		}
		n, err := src.ReadBatch(b)
		pkts := b.Pkts[:n]
		// -stop-after lands exactly on the Nth packet: the tail of the
		// batch beyond it is never decided, as if the signal had
		// arrived on that packet boundary.
		if *stopAfter > 0 && readCount+int64(n) >= *stopAfter {
			pkts = pkts[:*stopAfter-readCount]
			stopping = true
		}
		readCount += int64(len(pkts))
		if len(pkts) > 0 {
			flush(pkts)
		}
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			if stopping {
				finish("signal: stopping")
			} else {
				finish("done")
			}
			return saveFinal()
		default:
			// A mid-stream read error (torn capture file, dying tcpdump
			// pipe) must not swallow decided-but-unreported packets: the
			// batch read so far was flushed above; report, snapshot
			// best-effort, then surface the error.
			finish("aborted")
			if saveErr := saveFinal(); saveErr != nil {
				fmt.Fprintf(os.Stderr, "p2pboundd: final snapshot failed: %v\n", saveErr)
			}
			return fmt.Errorf("read error after %d packets: %w", total, err)
		}
	}
}

// loadTenants parses a -tenants file: one subscriber per line, either
// "CIDR" (the CIDR doubles as the id) or "id CIDR". Blank lines and
// #-comments are skipped.
func loadTenants(path string) ([]p2pbound.TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tcs []p2pbound.TenantConfig
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch fields := strings.Fields(line); len(fields) {
		case 1:
			tcs = append(tcs, p2pbound.TenantConfig{Network: fields[0]})
		case 2:
			tcs = append(tcs, p2pbound.TenantConfig{ID: fields[0], Network: fields[1]})
		default:
			return nil, fmt.Errorf("tenants file %s:%d: want '[id] CIDR', got %q", path, lineNo+1, line)
		}
	}
	if len(tcs) == 0 {
		return nil, fmt.Errorf("tenants file %s: no subscribers", path)
	}
	return tcs, nil
}

// restoreState loads the snapshot at path. os.ErrNotExist passes through
// for the caller's first-boot handling; adopt selects AdoptState, which
// accepts a snapshot whose geometry differs from the configured one.
func restoreState(l *p2pbound.Limiter, path string, adopt bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if adopt {
		return l.AdoptState(r)
	}
	return l.RestoreState(r)
}

// restoreTenantState is the -tenants analogue of restoreState.
func restoreTenantState(m *p2pbound.TenantManager, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.RestoreTenantState(bufio.NewReader(f))
}

// saveStateFn and saveTenantStateFn indirect the snapshot writers so
// tests can observe periodic snapshot cadence without racing the
// filesystem.
var (
	saveStateFn       = saveState
	saveTenantStateFn = saveTenantState
)

func saveState(l *p2pbound.Limiter, path string) error {
	return writeSnapshotAtomic(path, l.SaveState)
}

func saveTenantState(m *p2pbound.TenantManager, path string) error {
	return writeSnapshotAtomic(path, m.SaveTenantState)
}

// writeSnapshotAtomic writes a snapshot atomically and durably: the
// bytes are written to a temp file, fsynced, renamed over the target,
// and the directory entry fsynced — so a crash at any point leaves
// either the old snapshot or the new one, never a torn or missing file.
// On failure the temp file is removed rather than leaked.
func writeSnapshotAtomic(path string, saveTo func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(f)
	if err = saveTo(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Best-effort: some filesystems reject directory fsync, and losing the
// rename durability there only costs one snapshot interval.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

func toNetip(a packet.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}
