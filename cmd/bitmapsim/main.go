// Command bitmapsim replays a pcap trace through an edge filter — the
// bitmap filter, the SPI baseline, or the exact naive timer table — and
// reports drop rates and pre/post-filter throughput, reproducing the
// Section 5.3 simulations on arbitrary traces.
//
// Usage:
//
//	bitmapsim -i trace.pcap [-filter bitmap|spi|naive] [-net CIDR]
//	          [-low 50] [-high 100] [-block] [-k 4] [-n 20] [-m 3]
//	          [-dt 5s] [-holepunch] [-series]
//
// With -low/-high 0 the filter drops every stateless inbound packet
// (P_d = 1, the Figure 8 configuration); otherwise P_d ramps between the
// thresholds (Mbps) as in Figure 9. -block enables the blocked-connection
// memory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/ingest"
	"p2pbound/internal/metrics"
	"p2pbound/internal/naive"
	"p2pbound/internal/netsim"
	"p2pbound/internal/packet"
	"p2pbound/internal/red"
	"p2pbound/internal/spi"
	"p2pbound/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bitmapsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bitmapsim", flag.ContinueOnError)
	var (
		in        = fs.String("i", "", "input pcap path (required)")
		filterSel = fs.String("filter", "bitmap", "filter to install: bitmap, spi, or naive")
		netCIDR   = fs.String("net", "140.112.0.0/16", "client network CIDR")
		lowMbps   = fs.Float64("low", 0, "P_d low threshold L in Mbps (0 with -high 0 = always drop)")
		highMbps  = fs.Float64("high", 0, "P_d high threshold H in Mbps")
		block     = fs.Bool("block", false, "remember dropped socket pairs and block the whole connection")
		k         = fs.Int("k", 4, "bitmap: number of bit vectors")
		n         = fs.Uint("n", 20, "bitmap: bits per vector = 2^n")
		m         = fs.Int("m", 3, "bitmap: hash functions")
		dt        = fs.Duration("dt", 5*time.Second, "bitmap: rotation period Δt")
		holePunch = fs.Bool("holepunch", false, "bitmap/naive: partial-tuple hashing")
		idle      = fs.Duration("idle", 240*time.Second, "spi: idle timeout")
		seed      = fs.Uint64("seed", 42, "seed for probabilistic drops")
		series    = fs.Bool("series", false, "print the per-second drop-rate series")
		listen    = fs.String("listen", "", "serve /metrics and /debug/pprof/ on this address during the replay (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -i input path")
	}
	clientNet, err := packet.ParseNetwork(*netCIDR)
	if err != nil {
		return err
	}

	var filter netsim.Filter
	var memory func() int
	switch *filterSel {
	case "bitmap":
		bm, err := core.New(core.Config{
			K: *k, NBits: *n, M: *m, DeltaT: *dt,
			HolePunch: *holePunch, Seed: *seed,
		})
		if err != nil {
			return err
		}
		filter = bm
		memory = bm.Bytes
	case "spi":
		sp, err := spi.New(spi.Config{IdleTimeout: *idle, Seed: *seed})
		if err != nil {
			return err
		}
		filter = sp
		memory = sp.Bytes
	case "naive":
		nv, err := naive.New(time.Duration(*k)**dt, *holePunch, *seed)
		if err != nil {
			return err
		}
		filter = nv
		memory = func() int { return nv.Len() * 32 }
	default:
		return fmt.Errorf("unknown filter %q", *filterSel)
	}

	cfg := netsim.Config{BlockConnections: *block}
	if *highMbps > 0 {
		prober, err := red.NewLinear(*lowMbps*1e6, *highMbps*1e6)
		if err != nil {
			return err
		}
		cfg.Prober = prober
	}

	if *listen != "" {
		obs := newObservedFilter(filter, *filterSel, memory)
		filter = obs
		if cfg.Prober != nil {
			// The RED ramp is observable too: every computed P_d updates
			// the gauge the scrape reads.
			cfg.Prober = red.Observed{Prober: cfg.Prober, Fn: obs.observePd}
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: obs.reg.Handler()}
		go func() {
			if serveErr := srv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "bitmapsim: metrics server: %v\n", serveErr)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if shutErr := srv.Shutdown(ctx); shutErr != nil {
				srv.Close()
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	// Open the input only after the metrics server is listening: with a
	// streaming source (a FIFO fed by tcpdump), the replay phase is the
	// long part, and the endpoints should be reachable throughout it.
	// A regular file is mapped and walked in place; pipes and FIFOs are
	// read through a refilled window. Either way the trace is never
	// materialized in memory — only one ingest batch is live.
	src, err := ingest.Open(*in, clientNet, true)
	if err != nil {
		return err
	}
	defer src.Close()

	start := time.Now()
	res, err := netsim.ReplayIngest(src, filter, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("bitmapsim: %s filter over %d packets from %s\n", *filterSel, res.TotalPackets, *in)
	fmt.Printf("  replay wall time %v (%.2fM packets/sec)\n",
		elapsed.Round(time.Millisecond), float64(res.TotalPackets)/elapsed.Seconds()/1e6)
	fmt.Printf("  outbound %d, inbound %d\n", res.OutboundPackets, res.InboundPackets)
	fmt.Printf("  filter drops %d, blocked drops %d (overall %s)\n",
		res.FilterDropped, res.Blocked, stats.Pct(res.DropRate()))
	fmt.Printf("  upload   original %s -> filtered %s\n",
		stats.Mbps(res.OriginalUp.MeanRate()), stats.Mbps(res.FilteredUp.MeanRate()))
	fmt.Printf("  download original %s -> filtered %s\n",
		stats.Mbps(res.OriginalDown.MeanRate()), stats.Mbps(res.FilteredDown.MeanRate()))
	fmt.Printf("  filter state at end: %d bytes\n", memory())
	if n := src.Malformed(); n > 0 {
		fmt.Printf("  skipped %d malformed or corrupt frames\n", n)
	}
	if *series {
		fmt.Println("  per-second drop rates:")
		for i, r := range res.DropRateSeries() {
			fmt.Printf("    %4ds  %s\n", i, stats.Pct(r))
		}
	}
	return nil
}

// observedFilter instruments a netsim.Filter for live scraping during a
// replay: verdict counters, the simulated clock, the memory footprint,
// and (via observePd on a red.Observed wrapper) the current P_d. The
// replay is single-threaded, so everything records on stripe 0; the HTTP
// scrape goroutine only ever reads atomics.
type observedFilter struct {
	netsim.Filter
	reg       *metrics.Registry
	processed *metrics.Counter
	dropped   *metrics.Counter
	clock     *metrics.Gauge
	pd        *metrics.Gauge
	mem       *metrics.Gauge
	memory    func() int
}

func newObservedFilter(f netsim.Filter, name string, memory func() int) *observedFilter {
	reg := metrics.NewRegistry()
	lbl := metrics.L("filter", name)
	return &observedFilter{
		Filter:    f,
		reg:       reg,
		memory:    memory,
		processed: reg.Counter("bitmapsim_packets_total", "Packets decided by the replay filter.", 1, lbl),
		dropped:   reg.Counter("bitmapsim_dropped_total", "Packets the replay filter dropped.", 1, lbl),
		clock:     reg.Gauge("bitmapsim_trace_seconds", "Simulated trace time reached by the replay.", lbl),
		pd:        reg.Gauge("bitmapsim_pd", "Drop probability most recently computed by the prober.", lbl),
		mem:       reg.Gauge("bitmapsim_filter_bytes", "Memory footprint of the filter state.", lbl),
	}
}

func (o *observedFilter) Advance(ts time.Duration) {
	o.clock.Set(ts.Seconds())
	// Sampled on the replay goroutine, not at scrape time: the SPI and
	// naive baselines compute their footprint from mutable tables.
	o.mem.Set(float64(o.memory()))
	o.Filter.Advance(ts)
}

func (o *observedFilter) Process(pkt *packet.Packet, pd float64) core.Verdict {
	v := o.Filter.Process(pkt, pd)
	o.processed.Inc(0)
	if v == core.Drop {
		o.dropped.Inc(0)
	}
	return v
}

func (o *observedFilter) observePd(_, pd float64) { o.pd.Set(pd) }
