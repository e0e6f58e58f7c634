package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"p2pbound"
	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// options are the run settings taken from the command line.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	quick   bool
}

const (
	// setupRuns is how many times a run builds its instances and warms
	// them up; setup_s is the median, so one slow start does not move it.
	setupRuns = 3
	// segments is the number of groups of whole passes the measured run is
	// cut into; pps is the median of their rates.
	segments = 5
	// driftLimit is the change in the calibration reading between the
	// start and the end of a run beyond which the host is taken to have
	// changed speed under the run, and --compare refuses it.
	driftLimit = 0.05
	// refCalibNs is what the calibration loop, six dependent ALU operations
	// per iteration, reads on a core clocked at 3 GHz. Every reported time
	// is scaled by (refCalibNs / host.calib_ns)², host.calib_ns being the
	// loop's median reading between the run's passes. The host's speed
	// drifts by tens of percent over minutes with the load its neighbours
	// put on it; when the loop reads slower, the caches and memory are
	// busier too, and the workloads' times grew with about the square of
	// the loop's reading (log-log slopes of 1 to 2.5 over sets of runs of
	// every workload). The scaling takes most of that drift out of the
	// comparison of two sets of runs; the raw times stay in the report.
	refCalibNs = 2.0
	// driftIters and passIters size the calibration loop at the ends of
	// the run (about 10 ms a repeat) and between passes (about 0.5 ms).
	driftIters = 1 << 22
	passIters  = 1 << 18
)

// layer is one traced layer boundary. Each call into a layer in a traced
// run records one span.
type layer int8

const (
	lBatch          layer = iota // one closed-loop step: handover to last verdict
	lIngest                      // ingest.MMapSource.ReadBatch plus conversion to p2pbound.Packet
	lRoute                       // ShardedLimiter.ShardOf over the group (shadow)
	lPipelineSubmit              // Pipeline.SubmitBatch
	lPipelineDrain               // Pipeline.Drain
	lTenantSubmit                // TenantPipeline.SubmitBatch
	lTenantDrain                 // TenantPipeline.Drain
	lProbe                       // FastPath.Probe over the batch, misses into the MissRing
	lLimiter                     // Limiter.ProcessBatch (a shadow Limiter where the limiters run off the producer's path)
	lPublish                     // Limiter.PublishOffload
	lMetrics                     // Telemetry.WritePrometheus
	lCore                        // core.Filter.ProcessBatch (shadow)
	lHashes                      // core.Filter.HashBatch (shadow)
	numLayers
)

// layerNames are the span names, and the first element of every layer
// metric's name.
var layerNames = [numLayers]string{
	"batch", "ingest", "route", "pipeline.submit", "pipeline.drain_wait",
	"tenant.submit", "tenant.drain_wait", "offload.probe", "limiter",
	"offload.publish", "metrics", "core", "hashes",
}

// span is one recorded layer call. Times are nanoseconds since the
// traced run began; parent is -1 for a batch's root span.
type span struct {
	batch         uint32
	layer, parent layer
	start, end    int64
}

// recorder times the closed loop: the handover and completion of every
// batch, the span of every pass with the calibration reading after it,
// and in a traced run one span per layer call.
type recorder struct {
	base  time.Time
	start []int64 // batch handed over, ns since base
	end   []int64 // last verdict of the batch known
	// One entry per pass: its span, packets, first batch, and the
	// calibration reading after it.
	passBegin, passEnd, passPkts []int64
	passFirst                    []int
	calib                        []float64
	tr                           *tracer // nil in an untraced run
}

// newRecorder returns a recorder with room for batches batches, so that
// its own growth does not count in the run's allocations.
func newRecorder(tr *tracer, batches int) *recorder {
	return &recorder{
		base:  time.Now(),
		start: make([]int64, 0, batches),
		end:   make([]int64, 0, batches),
		tr:    tr,
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// span ends the call into layer l that began at start and returns its end,
// where the next call of the same batch begins. It does nothing untraced.
func (r *recorder) span(l layer, start int64) int64 {
	if r.tr == nil {
		return 0
	}
	end := r.now()
	r.tr.add(uint32(len(r.start)), l, lBatch, start, end)
	return end
}

// batch records one closed-loop step that began at start and whose every
// verdict is now known. pkts are the packets that reached the step's
// limiters, which a traced run then feeds to its shadow instances.
func (r *recorder) batch(start int64, pkts []p2pbound.Packet) {
	end := r.now()
	r.start = append(r.start, start)
	r.end = append(r.end, end)
	if r.tr != nil {
		id := uint32(len(r.start) - 1)
		r.tr.add(id, lBatch, -1, start, end)
		r.tr.shadow.run(r, id, pkts)
	}
}

// packets returns the number of packets handed over.
func (r *recorder) packets() int64 {
	var n int64
	for _, p := range r.passPkts {
		n += p
	}
	return n
}

// latencies returns every batch's handover-to-last-verdict time in ns.
func (r *recorder) latencies() []float64 {
	lat := make([]float64, len(r.start))
	for i := range lat {
		lat[i] = float64(r.end[i] - r.start[i])
	}
	return lat
}

// segmentRates cuts the passes into n groups of consecutive whole passes,
// as equal as the pass count allows, and returns each group's packets per
// second of pass time.
func (r *recorder) segmentRates(n int) []float64 {
	p := len(r.passBegin)
	n = min(n, p)
	rates := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		var pkts, ns int64
		for i := k * p / n; i < (k+1)*p/n; i++ {
			pkts += r.passPkts[i]
			ns += r.passEnd[i] - r.passBegin[i]
		}
		rates = append(rates, float64(pkts)/(float64(ns)/1e9))
	}
	return rates
}

// passRates returns each pass's packets per second of pass time.
func (r *recorder) passRates() []float64 {
	rates := make([]float64, len(r.passBegin))
	for i := range rates {
		rates[i] = float64(r.passPkts[i]) / (float64(r.passEnd[i]-r.passBegin[i]) / 1e9)
	}
	return rates
}

// passMedians returns each pass's median batch latency in ns.
func (r *recorder) passMedians(lat []float64) []float64 {
	meds := make([]float64, len(r.passFirst))
	for i, lo := range r.passFirst {
		hi := len(lat)
		if i+1 < len(r.passFirst) {
			hi = r.passFirst[i+1]
		}
		meds[i] = median(lat[lo:hi])
	}
	return meds
}

// timeScale is the factor that takes the run's times to the reference
// clock (see refCalibNs).
func (r *recorder) timeScale() float64 {
	x := refCalibNs / median(r.calib)
	return x * x
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	spans  []span
	total  [numLayers]int64 // ns spent in each layer
	shadow *shadow
}

func (t *tracer) add(id uint32, l, parent layer, start, end int64) {
	t.spans = append(t.spans, span{batch: id, layer: l, parent: parent, start: start, end: end})
	t.total[l] += end - start
}

// durations returns the length in ns of every span of layer l.
func (t *tracer) durations(l layer) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.layer == l {
			d = append(d, float64(s.end-s.start))
		}
	}
	return d
}

// shadow times the layers that run inside a Limiter, or off the producer's
// path, by handing each batch's packets to instances of its own once the
// batch is done: a core.Filter for the filter (core) and its index
// derivation (hashes), a Limiter where the workload's limiters run on
// pipeline workers, and a ShardedLimiter's router where the workload
// shards.
type shadow struct {
	filter *core.Filter
	lim    *p2pbound.Limiter        // nil when the real Limiter is on the path
	router *p2pbound.ShardedLimiter // nil when the workload does not shard
	ipkts  []packet.Packet
	verd   []core.Verdict
	dec    []p2pbound.Decision
	// shards sums ShardOf's results, so the calls cannot be optimised away.
	shards int
}

func newShadow(cfg p2pbound.Config, withLimiter, withRouter bool) (*shadow, error) {
	f, err := core.New(coreConfig(cfg))
	if err != nil {
		return nil, err
	}
	sh := &shadow{filter: f}
	if withLimiter {
		if sh.lim, err = p2pbound.New(cfg); err != nil {
			return nil, err
		}
	}
	if withRouter {
		// ShardOf depends on the packet and the shard count alone, so the
		// router gets the smallest filters the configuration allows.
		if sh.router, err = p2pbound.NewSharded(p2pbound.Config{ClientNetwork: clientCIDR, VectorBits: 1}, pipelineShards); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// run feeds one finished batch to the shadow instances, in the order
// route, limiter, core, hashes. Hashing last, over lines the core call
// just touched, times index derivation alone.
func (sh *shadow) run(r *recorder, id uint32, pkts []p2pbound.Packet) {
	t := r.tr
	if sh.router != nil {
		s := r.now()
		for i := range pkts {
			sh.shards += sh.router.ShardOf(pkts[i])
		}
		t.add(id, lRoute, lBatch, s, r.now())
	}
	if sh.lim != nil {
		s := r.now()
		sh.dec = sh.lim.ProcessBatch(pkts, sh.dec[:0])
		t.add(id, lLimiter, lBatch, s, r.now())
	}
	sh.ipkts = sh.ipkts[:0]
	for i := range pkts {
		sh.ipkts = append(sh.ipkts, internal(&pkts[i]))
	}
	s := r.now()
	sh.verd = sh.filter.ProcessBatch(sh.ipkts, 0, sh.verd[:0])
	t.add(id, lCore, lLimiter, s, r.now())
	s = r.now()
	for rest := sh.ipkts; len(rest) > 0; {
		rest = rest[sh.filter.HashBatch(rest):]
	}
	t.add(id, lHashes, lCore, s, r.now())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the detailed record of one run: everything the result line
// does not carry. --compare reads it back.
type report struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Traced      bool    `json:"traced"`
	Quick       bool    `json:"quick"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	InputSHA256 string  `json:"input_sha256"`
	InputGenS   float64 `json:"input_gen_s"`
	PerPass     int64   `json:"packets_per_pass"`
	Passes      int     `json:"measured_passes"`
	Batches     int     `json:"measured_batches"`
	PeakReset   bool    `json:"peak_rss_reset"`
	// CalibNs is the median calibration reading between the measured
	// passes and TimeScale = (refCalibNs / CalibNs)² the factor every
	// reported time carries; RawMetrics are the times before it.
	CalibNs    float64            `json:"calib_ns"`
	TimeScale  float64            `json:"time_scale"`
	RawMetrics map[string]float64 `json:"raw_metrics"`
	// PassPPS and PassP50Us are each measured pass's rate and median
	// batch latency, unscaled.
	PassPPS     []float64         `json:"pass_pps"`
	PassP50Us   []float64         `json:"pass_p50_us"`
	ReplayS     float64           `json:"replay_s"`
	SetupRunsS  []float64         `json:"setup_runs_s"`
	CalibBefore float64           `json:"calib_ns_before"`
	CalibAfter  float64           `json:"calib_ns_after"`
	HostDrift   bool              `json:"host_drift"`
	Oracle      oracleCounts      `json:"oracle"`
	Failures    failures          `json:"failures"`
	FailFrac    float64           `json:"fail_frac"`
	Metrics     map[string]metric `json:"metrics"`
	Layers      map[string]metric `json:"layers"`

	spans []span
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// failures counts the packets a run got wrong, by cause.
type failures struct {
	// FNPkts counts inbound packets dropped while the T_e − Δt oracle held
	// live state for their flow.
	FNPkts int64 `json:"fn_pkts"`
	// Shed counts packets a full ring turned away undecided.
	Shed int64 `json:"shed"`
	// Conservation is how far the counters are from accounting for every
	// offered packet exactly once.
	Conservation int64 `json:"conservation"`
	// Sequential is how far the measured system's verdict counts after the
	// first measured pass are from its sequential form's on the same packets.
	Sequential int64 `json:"sequential"`
}

func (f failures) total() int64 { return f.FNPkts + f.Shed + f.Conservation + f.Sequential }

// judge turns the failure counts of attempted packets into the result
// line's correctness fields and the report's failure fraction.
func judge(f failures, attempted int64) (correct bool, failed int64, frac float64) {
	failed = f.total()
	return failed == 0, failed, float64(failed) / float64(attempted)
}

// run measures workload w once: input generation, setupRuns builds each
// with a warm-up pass, the measured passes, the verification replay and,
// with o.traced, the traced passes.
func run(w *workload, o options) (*report, *result, error) {
	rep := &report{
		Workload:    w.name,
		Seed:        o.seed,
		Traced:      o.traced,
		Quick:       o.quick,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CalibBefore: calibrate(driftIters),
		RawMetrics:  map[string]float64{},
		Metrics:     map[string]metric{},
		Layers:      map[string]metric{},
	}
	t := time.Now()
	in, err := w.gen(o.seed, o.quick)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	defer in.cleanup()
	rep.InputGenS = time.Since(t).Seconds()
	rep.InputSHA256 = in.digest
	// The memory high-water mark starts after input generation, whose
	// garbage belongs to the harness, not to the program under test.
	runtime.GC()
	debug.FreeOSMemory()
	rep.PeakReset = resetPeakRSS()

	var sys system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var warm *recorder
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			// Hand the previous instance's memory back to the kernel so
			// the peak resident size holds one instance, not several. A
			// pipeline's sync.Pool keeps it reachable for one more GC cycle,
			// hence two.
			sys.close()
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		if sys, err = w.build(in); err != nil {
			return nil, nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		warm = newRecorder(nil, 0)
		if err := sys.pass(0, warm); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t).Seconds())
	}
	rep.PerPass = sys.offered()

	// The measured run: a fixed number of passes, the same on every
	// commit, sized to take about --seconds.
	n := 1
	if !o.quick {
		n = max(1, int(math.Round(float64(w.passes)*o.seconds.Seconds()/10)))
	}
	batches := len(warm.start) * n
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := newRecorder(nil, batches)
	if err := measure(sys, in, rec, 1, 1); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	firstPassed, firstDropped := sys.verdicts()
	if err := measure(sys, in, rec, 2, n-1); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	peak := peakRSSMiB()
	rep.Passes = n
	rep.Batches = len(rec.start)
	measured := rec.packets()
	lat := rec.latencies()
	untracedNsPerPkt := sum(lat) / float64(measured)

	// The verification replay: warm-up pass and first measured pass again,
	// on fresh instances in the workload's sequential form, every verdict
	// checked against the oracle. Not timed.
	orc := newOracle(paperVectors*paperDeltaT, paperDeltaT)
	t = time.Now()
	if err := w.replay(in, orc); err != nil {
		return nil, nil, fmt.Errorf("%s: verification replay: %w", w.name, err)
	}
	rep.ReplayS = time.Since(t).Seconds()
	rep.Oracle = orc.counts
	rep.Failures.FNPkts = orc.counts.FNPkts
	rep.Failures.Sequential = abs(firstPassed-orc.counts.Passed) + abs(firstDropped-orc.counts.Dropped)

	rep.PassPPS = rec.passRates()
	for _, m := range rec.passMedians(lat) {
		rep.PassP50Us = append(rep.PassP50Us, m/1e3)
	}
	rep.CalibNs = median(rec.calib)
	rep.TimeScale = rec.timeScale()
	raw := rep.RawMetrics
	raw["setup_s"] = median(rep.SetupRunsS)
	raw["pps"] = median(rec.segmentRates(segments))
	raw["batch_p50_us"] = median(rep.PassP50Us)
	raw["batch_p99_us"] = quantile(lat, 0.99) / 1e3
	setMetric(rep.Metrics, "setup_s", raw["setup_s"]*rep.TimeScale)
	setMetric(rep.Metrics, "pps", raw["pps"]/rep.TimeScale)
	setMetric(rep.Metrics, "batch_p50_us", raw["batch_p50_us"]*rep.TimeScale)
	setMetric(rep.Metrics, "batch_p99_us", raw["batch_p99_us"]*rep.TimeScale)
	setMetric(rep.Metrics, "peak_rss_mib", peak)
	setMetric(rep.Layers, "runtime.alloc_b_per_pkt", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(measured))
	setMetric(rep.Layers, "limiter.fpr", orc.counts.fpr())

	attempted := measured
	if o.traced {
		k, err := tracedRun(w, in, sys, n, batches, untracedNsPerPkt, rep)
		if err != nil {
			return nil, nil, err
		}
		attempted += k
	}

	rep.Failures.Conservation, rep.Failures.Shed = sys.account()
	correct, failed, frac := judge(rep.Failures, attempted)
	rep.FailFrac = frac
	for name, v := range sys.counters() {
		setMetric(rep.Layers, name, v)
	}
	rep.CalibAfter = calibrate(driftIters)
	rep.HostDrift = math.Abs(rep.CalibAfter-rep.CalibBefore) > driftLimit*rep.CalibBefore

	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	want, from := e2eMetrics, rep.Metrics
	if o.traced {
		want, from = layerMetrics, rep.Layers
	}
	for _, d := range want {
		m, ok := from[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = m
	}
	return rep, res, nil
}

// tracedRun repeats the measured run's n passes with every layer call
// recorded as a span and adds the per-layer metrics to rep.Layers. It
// returns the number of packets it handed over.
func tracedRun(w *workload, in *inputs, sys system, n, batches int, untracedNsPerPkt float64, rep *report) (int64, error) {
	sh, err := w.shadow()
	if err != nil {
		return 0, fmt.Errorf("%s: shadow instances: %w", w.name, err)
	}
	tr := &tracer{shadow: sh, spans: make([]span, 0, batches*(len(w.layers)+1))}
	rec := newRecorder(tr, batches)
	s0 := sys.limiterStats()
	runtime.GC()
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	if err := measure(sys, in, rec, n+1, n); err != nil {
		return 0, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	runtime.ReadMemStats(&g1)
	s1 := sys.limiterStats()
	rep.spans = tr.spans

	pkts := rec.packets()
	scale := rec.timeScale()
	perPkt := func(l layer) float64 { return float64(tr.total[l]) / float64(pkts) * scale }
	perCallUs := func(l layer) float64 { return mean(tr.durations(l)) / 1e3 * scale }
	e2e := perPkt(lBatch)
	m := rep.Layers
	setMetric(m, "e2e.ns_per_pkt", e2e)
	setMetric(m, "hashes.ns_per_pkt", perPkt(lHashes))
	setMetric(m, "core.ns_per_pkt", perPkt(lCore))
	setMetric(m, "core.self_ns_per_pkt", perPkt(lCore)-perPkt(lHashes))
	setMetric(m, "limiter.ns_per_pkt", perPkt(lLimiter))
	setMetric(m, "limiter.self_ns_per_pkt", perPkt(lLimiter)-perPkt(lCore))
	path := 0.0
	for _, l := range w.path {
		path += perPkt(l)
	}
	setMetric(m, "residual.ns_per_pkt", e2e-path)
	// Both sides unscaled: the overhead is a ratio of two runs of one process.
	setMetric(m, "trace.overhead_frac", float64(tr.total[lBatch])/float64(pkts)/untracedNsPerPkt-1)
	setMetric(m, "host.calib_ns", median(rec.calib))

	decided := float64((s1.OutboundPackets + s1.InboundPackets) - (s0.OutboundPackets + s0.InboundPackets))
	setMetric(m, "limiter.matched_frac", float64(s1.InboundMatched-s0.InboundMatched)/float64(s1.InboundPackets-s0.InboundPackets))
	setMetric(m, "limiter.drop_frac", float64(s1.Dropped-s0.Dropped)/decided)
	setMetric(m, "limiter.rotations", float64(s1.Rotations-s0.Rotations))
	setMetric(m, "limiter.time_anomalies", float64(s1.TimeAnomalies-s0.TimeAnomalies))
	setMetric(m, "runtime.gc_cycles", float64(g1.NumGC-g0.NumGC))
	setMetric(m, "runtime.gc_pause_ms", float64(g1.PauseTotalNs-g0.PauseTotalNs)/1e6*scale)

	// The layers only some workloads have.
	for _, l := range w.layers {
		switch l {
		case lIngest:
			setMetric(m, "ingest.ns_per_pkt", perPkt(l))
		case lRoute:
			setMetric(m, "route.ns_per_pkt", perPkt(l))
		case lPipelineSubmit:
			setMetric(m, "pipeline.submit_ns_per_pkt", perPkt(l))
		case lPipelineDrain:
			setMetric(m, "pipeline.drain_wait_ns_per_pkt", perPkt(l))
			setMetric(m, "pipeline.drain_wait_us", perCallUs(l))
		case lTenantSubmit:
			setMetric(m, "tenant.submit_ns_per_pkt", perPkt(l))
		case lTenantDrain:
			setMetric(m, "tenant.drain_wait_ns_per_pkt", perPkt(l))
			setMetric(m, "tenant.drain_wait_us", perCallUs(l))
		case lProbe:
			setMetric(m, "offload.probe_ns", perPkt(l))
		case lPublish:
			d := tr.durations(l)
			setMetric(m, "offload.publish_ns_per_pkt", perPkt(l))
			setMetric(m, "offload.publish_us_p50", quantile(d, 0.50)/1e3*scale)
			setMetric(m, "offload.publish_us_p99", quantile(d, 0.99)/1e3*scale)
		case lMetrics:
			setMetric(m, "metrics.scrape_ns_per_pkt", perPkt(l))
			setMetric(m, "metrics.scrape_us", perCallUs(l))
		}
	}
	return pkts, nil
}

// measure runs n whole passes of the trace numbered from first, each
// shifted one trace span later than the one before so that rotation and
// metering move forward, and reads the calibration loop after each.
func measure(sys system, in *inputs, rec *recorder, first, n int) error {
	for p := first; p < first+n; p++ {
		offered := sys.offered()
		rec.passFirst = append(rec.passFirst, len(rec.start))
		begin := rec.now()
		if err := sys.pass(time.Duration(p)*in.span, rec); err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		rec.passBegin = append(rec.passBegin, begin)
		rec.passEnd = append(rec.passEnd, rec.now())
		rec.passPkts = append(rec.passPkts, sys.offered()-offered)
		rec.calib = append(rec.calib, calibrate(passIters))
	}
	return nil
}

// coreConfig is the core.Filter configuration a Limiter built from cfg
// runs, for the shadow filter.
func coreConfig(cfg p2pbound.Config) core.Config {
	c := core.DefaultConfig()
	if cfg.Vectors != 0 {
		c.K = cfg.Vectors
	}
	if cfg.VectorBits != 0 {
		c.NBits = cfg.VectorBits
	}
	if cfg.HashFunctions != 0 {
		c.M = cfg.HashFunctions
	}
	if cfg.RotateEvery != 0 {
		c.DeltaT = cfg.RotateEvery
	}
	c.HashScheme = hashes.Scheme(cfg.HashScheme)
	c.Layout = hashes.Layout(cfg.Layout)
	c.Seed = cfg.Seed
	return c
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times iters iterations of a fixed loop of six dependent ALU
// operations and returns nanoseconds per iteration, the median of three
// repeats. The loop touches no memory, so its time follows the core's
// clock alone.
func calibrate(iters int) float64 {
	var ns [3]float64
	for i := range ns {
		t := time.Now()
		x := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < iters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ns[i] = float64(time.Since(t)) / float64(iters)
	}
	return median(ns[:])
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) from
// the current resident size, reporting whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func setMetric(m map[string]metric, name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf(name)}
}

func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return sum(x) / float64(len(x))
}

func median(x []float64) float64 { return quantile(x, 0.5) }

// quantile returns the q-quantile of x by linear interpolation between
// order statistics.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
