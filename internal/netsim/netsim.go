// Package netsim replays packet traces through a filter installed at the
// edge of a client network, reproducing the simulation methodology of
// Section 5.3: the filter sees every packet in timestamp order, the
// dropping probability is derived from the measured (post-filter) uplink
// throughput, and — optionally — a dropped inbound packet pins its socket
// pair so that every future packet matching σ or σ̄ is dropped without
// consulting the filter, emulating a blocked connection in a replayed
// trace.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/red"
	"p2pbound/internal/stats"
	"p2pbound/internal/throughput"
)

// Filter is the packet-admission interface shared by the bitmap filter,
// the SPI baseline, and the naive timer table.
type Filter interface {
	// Advance moves the filter's clock to simulated time ts.
	Advance(ts time.Duration)
	// Process decides one packet's fate given the current conditional
	// dropping probability.
	Process(pkt *packet.Packet, pd float64) core.Verdict
}

// Config parameterizes a replay run.
type Config struct {
	// Prober maps uplink throughput to P_d. Nil means red.Always(1):
	// drop every stateless inbound packet (the Figure 8 setting).
	Prober red.Prober
	// BlockConnections enables the Section 5.3 blocked-connection
	// memory (used for the Figure 9 throughput-limiting simulation).
	BlockConnections bool
	// SeriesBucket is the resolution of the reported throughput and
	// drop-rate series; zero means one second.
	SeriesBucket time.Duration
	// MeterWindow is the uplink throughput averaging window feeding the
	// prober; zero means five one-second buckets.
	MeterWindow time.Duration
}

// Result is the outcome of one replay.
type Result struct {
	// OriginalUp/OriginalDown are the unfiltered throughput series (the
	// Figure 9-a curves); FilteredUp/FilteredDown the post-filter ones
	// (Figure 9-b).
	OriginalUp, OriginalDown *stats.TimeSeries
	FilteredUp, FilteredDown *stats.TimeSeries

	TotalPackets    int64
	InboundPackets  int64
	OutboundPackets int64
	FilterDropped   int64 // dropped by the filter's own decision
	Blocked         int64 // dropped by the blocked-connection memory

	// Per-bucket drop accounting for the Figure 8 scatter.
	bucket      time.Duration
	bucketTotal []int64
	bucketDrop  []int64
}

// DropRate returns the overall fraction of packets dropped (filter drops
// plus blocked-connection drops).
func (r *Result) DropRate() float64 {
	if r.TotalPackets == 0 {
		return 0
	}
	return float64(r.FilterDropped+r.Blocked) / float64(r.TotalPackets)
}

// DropRateSeries returns the per-bucket drop rates: the data behind one
// axis of the Figure 8 scatter plot. Buckets with no packets yield 0.
func (r *Result) DropRateSeries() []float64 {
	out := make([]float64, len(r.bucketTotal))
	for i, total := range r.bucketTotal {
		if total > 0 {
			out[i] = float64(r.bucketDrop[i]) / float64(total)
		}
	}
	return out
}

// run is the per-packet replay state machine shared by the slice and
// batch entry points.
type run struct {
	f       Filter
	prober  red.Prober
	upMeter *throughput.Meter
	blocked map[[packet.KeySize]byte]struct{}
	r       *Result
}

func newRun(f Filter, cfg Config) (*run, error) {
	prober := cfg.Prober
	if prober == nil {
		prober = red.Always(1)
	}
	bucket := cfg.SeriesBucket
	if bucket <= 0 {
		bucket = time.Second
	}
	meterWindow := cfg.MeterWindow
	if meterWindow <= 0 {
		meterWindow = 5 * time.Second
	}
	nBuckets := int(meterWindow / time.Second)
	if nBuckets < 1 {
		nBuckets = 1
	}
	upMeter, err := throughput.NewMeter(time.Second, nBuckets)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}

	r := &Result{bucket: bucket}
	for _, name := range []**stats.TimeSeries{&r.OriginalUp, &r.OriginalDown, &r.FilteredUp, &r.FilteredDown} {
		ts, err := stats.NewTimeSeries(bucket)
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		*name = ts
	}

	var blocked map[[packet.KeySize]byte]struct{}
	if cfg.BlockConnections {
		blocked = make(map[[packet.KeySize]byte]struct{})
	}
	return &run{f: f, prober: prober, upMeter: upMeter, blocked: blocked, r: r}, nil
}

// step replays one packet.
func (s *run) step(pkt *packet.Packet) {
	r := s.r
	s.f.Advance(pkt.TS)
	r.TotalPackets++
	bi := int(pkt.TS / r.bucket)
	for len(r.bucketTotal) <= bi {
		r.bucketTotal = append(r.bucketTotal, 0)
		r.bucketDrop = append(r.bucketDrop, 0)
	}
	r.bucketTotal[bi]++

	if pkt.Dir == packet.Outbound {
		r.OutboundPackets++
		r.OriginalUp.Add(pkt.TS, pkt.Len)
	} else {
		r.InboundPackets++
		r.OriginalDown.Add(pkt.TS, pkt.Len)
	}

	// Blocked-connection memory: both orientations of a blocked
	// socket pair are dropped without consulting the filter.
	if s.blocked != nil {
		_, hit := s.blocked[pkt.Pair.Key()]
		if !hit {
			_, hit = s.blocked[pkt.Pair.Inverse().Key()]
		}
		if hit {
			r.Blocked++
			r.bucketDrop[bi]++
			return
		}
	}

	pd := s.prober.Pd(s.upMeter.Rate(pkt.TS))
	if s.f.Process(pkt, pd) == core.Drop {
		r.FilterDropped++
		r.bucketDrop[bi]++
		if s.blocked != nil {
			s.blocked[pkt.Pair.Key()] = struct{}{}
		}
		return
	}

	// The packet passed: it contributes to the post-filter series
	// and, if outbound, to the uplink throughput that drives P_d.
	if pkt.Dir == packet.Outbound {
		r.FilteredUp.Add(pkt.TS, pkt.Len)
		s.upMeter.Add(pkt.TS, pkt.Len)
	} else {
		r.FilteredDown.Add(pkt.TS, pkt.Len)
	}
}

// Replay feeds every packet through the filter and collects the result.
// Packets must be sorted by timestamp.
func Replay(packets []packet.Packet, f Filter, cfg Config) (*Result, error) {
	s, err := newRun(f, cfg)
	if err != nil {
		return nil, err
	}
	for i := range packets {
		s.step(&packets[i])
	}
	return s.r, nil
}

// ReplayIngest streams batches out of src through the filter — the
// constant-memory path: only one batch of packets is live at a time, so
// replaying a multi-gigabyte trace costs a batch plus the source's own
// buffers. The walker's clamp keeps packets in timestamp order.
func ReplayIngest(src *ingest.Source, f Filter, cfg Config) (*Result, error) {
	s, err := newRun(f, cfg)
	if err != nil {
		return nil, err
	}
	b := ingest.NewBatch(0)
	for {
		n, err := src.ReadBatch(b)
		for i := 0; i < n; i++ {
			s.step(&b.Pkts[i])
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return s.r, nil
			}
			return s.r, fmt.Errorf("netsim: %w", err)
		}
	}
}
