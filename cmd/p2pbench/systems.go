package main

import (
	"errors"
	"io"
	"time"

	"p2pbound"
	"p2pbound/internal/ingest"
	"p2pbound/internal/offload"
	"p2pbound/internal/packet"
)

// limiterAccount checks a limiter's own identities: every offered packet
// is outbound, inbound or unroutable, and every inbound one matched or
// unmatched.
func limiterAccount(s p2pbound.Stats, offered int64) int64 {
	return abs(s.OutboundPackets+s.InboundPackets+s.Unroutable-offered) +
		abs(s.InboundMatched+s.InboundUnmatched-s.InboundPackets)
}

// limiterVerdicts derives verdict counts from a limiter's counters:
// dropped packets lost a P_d draw or were unroutable.
func limiterVerdicts(s p2pbound.Stats) (passed, dropped int64) {
	dropped = s.Dropped + s.Unroutable
	return s.OutboundPackets + s.InboundPackets - s.Dropped, dropped
}

// limiterPath is what the systems whose producer calls
// Limiter.ProcessBatch itself share: the limiter and the packet count.
type limiterPath struct {
	lim *p2pbound.Limiter
	n   int64
}

func (s *limiterPath) offered() int64               { return s.n }
func (s *limiterPath) verdicts() (int64, int64)     { return limiterVerdicts(s.lim.Stats()) }
func (s *limiterPath) account() (int64, int64)      { return limiterAccount(s.lim.Stats(), s.n), 0 }
func (s *limiterPath) limiterStats() p2pbound.Stats { return s.lim.Stats() }
func (s *limiterPath) close()                       {}

// campusSys is p2pboundd's path: the capture walked by the zero-copy mmap
// source in 512-packet batches, each converted to p2pbound.Packet and
// decided by Limiter.ProcessBatch, with telemetry attached and scraped
// once per 10 s of trace time.
type campusSys struct {
	limiterPath
	in     *inputs
	tel    *p2pbound.Telemetry
	batch  *ingest.Batch
	pub    []p2pbound.Packet
	dec    []p2pbound.Decision
	every  time.Duration // trace time between two scrapes
	scrape time.Duration // trace time of the next scrape

	malformed, regressions int64
}

func buildCampus(in *inputs) (system, error) {
	tel := p2pbound.NewTelemetry()
	cfg := paperConfig()
	cfg.Telemetry = tel
	lim, err := p2pbound.New(cfg)
	if err != nil {
		return nil, err
	}
	return &campusSys{
		limiterPath: limiterPath{lim: lim},
		in:          in,
		tel:         tel,
		batch:       ingest.NewBatch(campusBatch),
		pub:         make([]p2pbound.Packet, 0, campusBatch),
		dec:         make([]p2pbound.Decision, 0, campusBatch),
		// A smoke-test trace is shorter than the scrape period; it still
		// scrapes, twice a pass.
		every:  min(scrapeEvery, in.span/2),
		scrape: min(scrapeEvery, in.span/2),
	}, nil
}

func (s *campusSys) pass(shift time.Duration, rec *recorder) error {
	src, err := ingest.OpenMMap(s.in.pcap, clientNet, false)
	if err != nil {
		return err
	}
	defer src.Close()
	for {
		t0 := rec.now()
		n, err := src.ReadBatch(s.batch)
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		if n > 0 {
			s.pub = s.pub[:0]
			for i := range s.batch.Pkts[:n] {
				s.pub = append(s.pub, public(&s.batch.Pkts[i], shift))
			}
			t := rec.span(lIngest, t0)
			s.dec = s.lim.ProcessBatch(s.pub, s.dec[:0])
			t = rec.span(lLimiter, t)
			if last := s.pub[n-1].Timestamp; last >= s.scrape {
				if err := s.tel.WritePrometheus(io.Discard); err != nil {
					return err
				}
				rec.span(lMetrics, t)
				for s.scrape <= last {
					s.scrape += s.every
				}
			}
			s.n += int64(n)
			rec.batch(t0, s.pub)
		}
		if err != nil {
			break
		}
	}
	s.malformed += src.Malformed()
	s.regressions += src.ClockRegressions()
	return nil
}

func (s *campusSys) counters() map[string]float64 {
	return map[string]float64{
		"ingest.malformed":         float64(s.malformed),
		"ingest.clock_regressions": float64(s.regressions),
	}
}

// replayCampus decides the capture's first two passes packet by packet
// with Limiter.Process.
func replayCampus(in *inputs, o *oracle) error {
	lim, err := p2pbound.New(paperConfig())
	if err != nil {
		return err
	}
	var mt matchTracker
	b := ingest.NewBatch(0)
	for pass := 0; pass < 2; pass++ {
		src, err := ingest.OpenMMap(in.pcap, clientNet, false)
		if err != nil {
			return err
		}
		for {
			n, err := src.ReadBatch(b)
			if err != nil && !errors.Is(err, io.EOF) {
				src.Close()
				return err
			}
			for i := range b.Pkts[:n] {
				p := &b.Pkts[i]
				p.TS += time.Duration(pass) * in.span
				v := lim.Process(public(p, 0))
				o.observe(p, v, mt.matched(lim.Stats().InboundMatched))
			}
			if err != nil {
				break
			}
		}
		src.Close()
	}
	return nil
}

// ispSys hands the decoded trace to Limiter.ProcessBatch in 512-packet
// batches.
type ispSys struct {
	limiterPath
	in  *inputs
	dec []p2pbound.Decision
}

func buildISP(in *inputs) (system, error) {
	lim, err := p2pbound.New(ispConfig())
	if err != nil {
		return nil, err
	}
	return &ispSys{limiterPath: limiterPath{lim: lim}, in: in, dec: make([]p2pbound.Decision, 0, ispBatch)}, nil
}

func (s *ispSys) pass(shift time.Duration, rec *recorder) error {
	return s.in.each(ispBatch, shift, func(_ int, b []p2pbound.Packet) error {
		t0 := rec.now()
		s.dec = s.lim.ProcessBatch(b, s.dec[:0])
		rec.span(lLimiter, t0)
		s.n += int64(len(b))
		rec.batch(t0, b)
		return nil
	})
}

func (s *ispSys) counters() map[string]float64 { return nil }

// replayISP decides the first two passes packet by packet with
// Limiter.Process.
func replayISP(in *inputs, o *oracle) error {
	lim, err := p2pbound.New(ispConfig())
	if err != nil {
		return err
	}
	return replayEach(in, o, lim.Process, lim.Stats)
}

// replayEach decides the first two passes packet by packet with process,
// taking each packet's matched flag from the InboundMatched of stats.
func replayEach(in *inputs, o *oracle, process func(p2pbound.Packet) p2pbound.Decision, stats func() p2pbound.Stats) error {
	var mt matchTracker
	return replayPasses(in, func(_ int, b []p2pbound.Packet) error {
		for i := range b {
			v := process(b[i])
			p := internal(&b[i])
			o.observe(&p, v, mt.matched(stats().InboundMatched))
		}
		return nil
	})
}

// replayPasses hands the decoded trace to fn twice, as the warm-up pass and
// the first measured pass saw it.
func replayPasses(in *inputs, fn func(lo int, b []p2pbound.Packet) error) error {
	for pass := 0; pass < 2; pass++ {
		if err := in.each(pipelineGroup, time.Duration(pass)*in.span, fn); err != nil {
			return err
		}
	}
	return nil
}

// shardedSys hands the decoded trace to a two-shard Pipeline in groups of
// 4096: SubmitBatch, then Drain.
type shardedSys struct {
	in *inputs
	p  *p2pbound.Pipeline
	n  int64
}

func buildSharded(in *inputs) (system, error) {
	p, err := p2pbound.NewPipeline(ispConfig(), p2pbound.PipelineConfig{Shards: pipelineShards})
	if err != nil {
		return nil, err
	}
	return &shardedSys{in: in, p: p}, nil
}

func (s *shardedSys) pass(shift time.Duration, rec *recorder) error {
	return s.in.each(pipelineGroup, shift, func(_ int, g []p2pbound.Packet) error {
		t0 := rec.now()
		s.p.SubmitBatch(g)
		t := rec.span(lPipelineSubmit, t0)
		s.p.Drain()
		rec.span(lPipelineDrain, t)
		s.n += int64(len(g))
		rec.batch(t0, g)
		return nil
	})
}

func (s *shardedSys) offered() int64               { return s.n }
func (s *shardedSys) verdicts() (int64, int64)     { return s.p.Verdicts() }
func (s *shardedSys) limiterStats() p2pbound.Stats { return s.p.Stats() }
func (s *shardedSys) close()                       { s.p.Close() }

func (s *shardedSys) account() (broken, shed int64) {
	st := s.p.Stats()
	passed, dropped := s.p.Verdicts()
	shed = st.ShedPassed + st.ShedDropped
	return abs(st.OutboundPackets+st.InboundPackets+st.Unroutable+shed-s.n) +
		abs(st.InboundMatched+st.InboundUnmatched-st.InboundPackets) +
		abs(passed+dropped+shed-s.n), shed
}

func (s *shardedSys) counters() map[string]float64 {
	st := s.p.Stats()
	return map[string]float64{"pipeline.shed": float64(st.ShedPassed + st.ShedDropped)}
}

// replaySharded decides the first two passes packet by packet with
// ShardedLimiter.Process.
func replaySharded(in *inputs, o *oracle) error {
	sl, err := p2pbound.NewSharded(ispConfig(), pipelineShards)
	if err != nil {
		return err
	}
	return replayEach(in, o, sl.Process, sl.Stats)
}

// offloadSplit is the two-tier kernel-offload split: FastPath.Probe
// answers every packet first; misses travel a MissRing to the Limiter,
// which republishes the flat map every publishEvery batches.
type offloadSplit struct {
	lim     *p2pbound.Limiter
	om      *offload.Map
	fp      *offload.FastPath
	ring    *offload.MissRing[p2pbound.Packet]
	batches int
}

func newOffloadSplit() (*offloadSplit, error) {
	lim, err := p2pbound.New(offloadConfig())
	if err != nil {
		return nil, err
	}
	om, err := lim.NewOffloadMap()
	if err != nil {
		return nil, err
	}
	if err := lim.PublishOffload(om); err != nil {
		return nil, err
	}
	fp, err := offload.NewFastPath(om)
	if err != nil {
		return nil, err
	}
	return &offloadSplit{lim: lim, om: om, fp: fp, ring: offload.NewMissRing[p2pbound.Packet](offloadBatch)}, nil
}

// endBatch republishes the map when the batch just decided completes a
// publishing period, reporting whether it did.
func (sp *offloadSplit) endBatch() (bool, error) {
	if sp.batches++; sp.batches%publishEvery != 0 {
		return false, nil
	}
	return true, sp.lim.PublishOffload(sp.om)
}

type offloadSys struct {
	in  *inputs
	sp  *offloadSplit
	esc []p2pbound.Packet
	dec []p2pbound.Decision
	n   int64
}

func buildOffload(in *inputs) (system, error) {
	sp, err := newOffloadSplit()
	if err != nil {
		return nil, err
	}
	return &offloadSys{
		in:  in,
		sp:  sp,
		esc: make([]p2pbound.Packet, 0, offloadBatch),
		dec: make([]p2pbound.Decision, 0, offloadBatch),
	}, nil
}

func (s *offloadSys) pass(shift time.Duration, rec *recorder) error {
	sp := s.sp
	return s.in.each(offloadBatch, shift, func(lo int, b []p2pbound.Packet) error {
		t0 := rec.now()
		keys := s.in.keys[lo : lo+len(b)]
		for i := range b {
			if sp.fp.Probe(keys[i].pair, keys[i].dir) != offload.Hit {
				// A full ring sheds the packet; the overflow counter
				// records it and account reports it.
				sp.ring.TryPush(b[i])
			}
		}
		t := rec.span(lProbe, t0)
		s.esc = sp.ring.Drain(s.esc[:0])
		s.dec = sp.lim.ProcessBatch(s.esc, s.dec[:0])
		t = rec.span(lLimiter, t)
		published, err := sp.endBatch()
		if err != nil {
			return err
		}
		if published {
			rec.span(lPublish, t)
		}
		s.n += int64(len(b))
		rec.batch(t0, s.esc)
		return nil
	})
}

func (s *offloadSys) offered() int64               { return s.n }
func (s *offloadSys) limiterStats() p2pbound.Stats { return s.sp.lim.Stats() }
func (s *offloadSys) close()                       {}

func (s *offloadSys) verdicts() (passed, dropped int64) {
	passed, dropped = limiterVerdicts(s.sp.lim.Stats())
	return passed + int64(s.sp.fp.Hits()), dropped
}

func (s *offloadSys) account() (broken, shed int64) {
	fp, st := s.sp.fp, s.sp.lim.Stats()
	shed = int64(s.sp.ring.Overflow())
	return abs(int64(fp.Hits()+fp.Escalations())-s.n) +
		limiterAccount(st, int64(fp.Escalations())-shed), shed
}

func (s *offloadSys) counters() map[string]float64 {
	fp := s.sp.fp
	return map[string]float64{
		"offload.hit_frac":      float64(fp.Hits()) / float64(fp.Hits()+fp.Escalations()),
		"offload.retries":       float64(fp.Retries()),
		"offload.ring_overflow": float64(s.sp.ring.Overflow()),
	}
}

// replayOffload runs the split itself on a fresh instance, deciding each
// batch's misses one by one with Limiter.Process so every packet's matched
// flag is known.
func replayOffload(in *inputs, o *oracle) error {
	sp, err := newOffloadSplit()
	if err != nil {
		return err
	}
	var mt matchTracker
	type verdict struct {
		v       p2pbound.Decision
		matched bool
	}
	vs := make([]verdict, offloadBatch)
	var esc []int
	for pass := 0; pass < 2; pass++ {
		err := in.each(offloadBatch, time.Duration(pass)*in.span, func(lo int, b []p2pbound.Packet) error {
			esc = esc[:0]
			for i := range b {
				k := &in.keys[lo+i]
				if sp.fp.Probe(k.pair, k.dir) == offload.Hit {
					vs[i] = verdict{p2pbound.Pass, k.dir == packet.Inbound}
				} else {
					esc = append(esc, i)
				}
			}
			for _, i := range esc {
				v := sp.lim.Process(b[i])
				vs[i] = verdict{v, mt.matched(sp.lim.Stats().InboundMatched)}
			}
			for i := range b {
				p := internal(&b[i])
				o.observe(&p, vs[i].v, vs[i].matched)
			}
			_, err := sp.endBatch()
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tenantSys hands the decoded trace to a two-shard TenantPipeline over
// 16,384 /30 subscribers in groups of 4096: SubmitBatch, then Drain. Each
// shard worker spills subscribers idle for 1 s whenever its ring runs dry.
type tenantSys struct {
	in  *inputs
	m   *p2pbound.TenantManager
	tp  *p2pbound.TenantPipeline
	ids []string
	n   int64
}

func newTenantManager() (*p2pbound.TenantManager, error) {
	m, err := p2pbound.NewTenantManager(tenantManagerConfig())
	if err != nil {
		return nil, err
	}
	if err := m.AddTenants(tenantConfigs()); err != nil {
		return nil, err
	}
	return m, nil
}

func buildTenants(in *inputs) (system, error) {
	m, err := newTenantManager()
	if err != nil {
		return nil, err
	}
	tp := p2pbound.NewTenantPipeline(m, p2pbound.TenantPipelineConfig{EvictAfter: time.Second})
	return &tenantSys{in: in, m: m, tp: tp, ids: m.TenantIDs()}, nil
}

func (s *tenantSys) pass(shift time.Duration, rec *recorder) error {
	return s.in.each(pipelineGroup, shift, func(_ int, g []p2pbound.Packet) error {
		t0 := rec.now()
		s.tp.SubmitBatch(g)
		t := rec.span(lTenantSubmit, t0)
		s.tp.Drain()
		rec.span(lTenantDrain, t)
		s.n += int64(len(g))
		rec.batch(t0, g)
		return nil
	})
}

func (s *tenantSys) offered() int64           { return s.n }
func (s *tenantSys) verdicts() (int64, int64) { return s.tp.Verdicts() }
func (s *tenantSys) close()                   { s.tp.Close() }

func (s *tenantSys) limiterStats() p2pbound.Stats {
	var sum p2pbound.Stats
	for _, id := range s.ids {
		st, _ := s.m.TenantStats(id)
		sum.OutboundPackets += st.OutboundPackets
		sum.InboundPackets += st.InboundPackets
		sum.InboundMatched += st.InboundMatched
		sum.InboundUnmatched += st.InboundUnmatched
		sum.Dropped += st.Dropped
		sum.Rotations += st.Rotations
		sum.Unroutable += st.Unroutable
		sum.TimeAnomalies += st.TimeAnomalies
	}
	return sum
}

func (s *tenantSys) account() (broken, shed int64) {
	st, ms := s.limiterStats(), s.m.Stats()
	passed, dropped := s.tp.Verdicts()
	shedP, shedD := s.tp.Shed()
	shed = shedP + shedD
	return abs(st.OutboundPackets+st.InboundPackets+st.Unroutable+ms.NoTenant+ms.Unroutable+shed-s.n) +
		abs(st.InboundMatched+st.InboundUnmatched-st.InboundPackets) +
		abs(passed+dropped+shed-s.n), shed
}

func (s *tenantSys) counters() map[string]float64 {
	ms := s.m.Stats()
	shedP, shedD := s.tp.Shed()
	kpkts := float64(s.n) / 1e3
	return map[string]float64{
		"tenant.hydrations_per_kpkt": float64(ms.Hydrations) / kpkts,
		"tenant.evictions_per_kpkt":  float64(ms.Evictions) / kpkts,
		"tenant.spill_bytes":         float64(ms.SpillBytes),
		"tenant.arena_bytes":         float64(ms.ArenaBytes),
		"tenant.shed":                float64(shedP + shedD),
	}
}

// replayTenants decides the first two passes packet by packet with
// TenantManager.Process, spilling idle subscribers between groups as the
// pipeline's workers do when their rings run dry.
func replayTenants(in *inputs, o *oracle) error {
	m, err := newTenantManager()
	if err != nil {
		return err
	}
	ids := m.TenantIDs()
	mts := make([]matchTracker, len(ids))
	return replayPasses(in, func(_ int, b []p2pbound.Packet) error {
		for i := range b {
			v := m.Process(b[i])
			p := internal(&b[i])
			t := tenantOf(&p)
			st, _ := m.TenantStats(ids[t])
			o.observe(&p, v, mts[t].matched(st.InboundMatched))
		}
		m.EvictIdle(time.Second)
		return nil
	})
}
