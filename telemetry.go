package p2pbound

import (
	"io"
	"math"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"p2pbound/internal/metrics"
	"p2pbound/internal/replica"
)

// telemetryStripes is the stripe count of the shared histograms and
// pipeline counters. Stripe indices wrap, so topologies with more shards
// than stripes stay correct — they merely share cache lines.
const telemetryStripes = 16

// Telemetry is the observability root of a limiter topology: one metrics
// registry that every Limiter, ShardedLimiter, and Pipeline built with a
// Config referencing it reports into. Attach it once:
//
//	tel := p2pbound.NewTelemetry()
//	limiter, err := p2pbound.New(p2pbound.Config{..., Telemetry: tel})
//	go http.ListenAndServe("localhost:9090", tel.Handler())
//
// Limiters attach in construction order and label their series with a
// shard index (a standalone limiter is shard 0; NewSharded and
// NewPipeline shards attach in shard order). One Telemetry should back
// one topology — attaching two independent pipelines to the same
// instance interleaves their shard numbering.
//
// The exported series are sampled from the same atomic counters the
// limiter already maintains, so attaching telemetry adds no work to the
// per-packet path beyond two predictable nil checks; scrapes pay the
// collection cost. Recording into the histograms (drop P_d, batch
// latency) is wait-free and allocation-free.
type Telemetry struct {
	reg *metrics.Registry

	// dropPd records the P_d in effect at each dropped packet; its shape
	// shows whether drops happen at the bottom of the RED ramp (uplink
	// barely over the low threshold) or under saturation.
	dropPd *metrics.Histogram
	// batchSeconds records the wall-clock latency of each ProcessBatch
	// call on a telemetry-attached limiter.
	batchSeconds *metrics.Histogram

	mu         sync.Mutex
	shards     int
	pipelines  int
	replicas   int
	tenantMgrs int
}

// NewTelemetry returns an empty telemetry root ready to be referenced
// from Config.
func NewTelemetry() *Telemetry {
	t := &Telemetry{reg: metrics.NewRegistry()}
	t.dropPd = t.reg.Histogram(
		"p2pbound_drop_pd",
		"Drop probability P_d in effect at each dropped inbound packet.",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
		telemetryStripes,
	)
	t.batchSeconds = t.reg.Histogram(
		"p2pbound_batch_seconds",
		"Wall-clock latency of one ProcessBatch call.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1},
		telemetryStripes,
	)
	return t
}

// Handler returns the HTTP observability surface for this topology:
// /metrics (Prometheus text format), /metrics.json, /debug/vars
// (expvar), and /debug/pprof/. Safe to serve while packets are being
// processed.
func (t *Telemetry) Handler() http.Handler { return t.reg.Handler() }

// WritePrometheus renders every series in the Prometheus text exposition
// format.
func (t *Telemetry) WritePrometheus(w io.Writer) error { return t.reg.WritePrometheus(w) }

// WriteJSON renders every series as JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error { return t.reg.WriteJSON(w) }

// attach registers one limiter's counters and gauges under the next
// shard label. Called from New when Config.Telemetry is set; the scrape
// closures read the limiter's atomic counters and load l.filter through
// its atomic pointer, so they are safe concurrently with processing and
// with RestoreState/AdoptState swaps.
func (t *Telemetry) attach(l *Limiter) {
	t.mu.Lock()
	shard := t.shards
	t.shards++
	t.mu.Unlock()
	l.tel = t
	l.telShard = shard
	l.mirror = true
	lbl := metrics.L("shard", strconv.Itoa(shard))

	stat := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(l.Stats())) }
	}
	t.reg.CounterFunc("p2pbound_packets_total", "Packets processed, by direction.",
		stat(func(s Stats) int64 { return s.OutboundPackets }), metrics.L("dir", "outbound"), lbl)
	t.reg.CounterFunc("p2pbound_packets_total", "Packets processed, by direction.",
		stat(func(s Stats) int64 { return s.InboundPackets }), metrics.L("dir", "inbound"), lbl)
	t.reg.CounterFunc("p2pbound_inbound_total", "Inbound packets by bitmap-filter match result.",
		stat(func(s Stats) int64 { return s.InboundMatched }), metrics.L("result", "matched"), lbl)
	t.reg.CounterFunc("p2pbound_inbound_total", "Inbound packets by bitmap-filter match result.",
		stat(func(s Stats) int64 { return s.InboundUnmatched }), metrics.L("result", "unmatched"), lbl)
	t.reg.CounterFunc("p2pbound_dropped_total", "Unmatched inbound packets dropped by the P_d draw.",
		stat(func(s Stats) int64 { return s.Dropped }), lbl)
	t.reg.CounterFunc("p2pbound_unroutable_total", "Unclassifiable (non-IPv4) packets dropped defensively.",
		stat(func(s Stats) int64 { return s.Unroutable }), lbl)
	t.reg.CounterFunc("p2pbound_time_anomalies_total", "Timestamp regressions beyond the reorder tolerance.",
		stat(func(s Stats) int64 { return s.TimeAnomalies }), lbl)
	t.reg.CounterFunc("p2pbound_rotations_total", "Bit-vector rotations (the filter epoch).",
		stat(func(s Stats) int64 { return s.Rotations }), lbl)
	t.reg.CounterFunc("p2pbound_uplink_bytes_total", "Outbound bytes accounted by the throughput meter.",
		func() float64 { return float64(l.meter.TotalBytes()) }, lbl)
	t.reg.GaugeFunc("p2pbound_pd", "Drop probability currently applied to unmatched inbound packets.",
		func() float64 { return math.Float64frombits(l.pdBits.Load()) }, lbl)
	t.reg.GaugeFunc("p2pbound_uplink_bps", "Measured uplink throughput feeding the RED ramp, bits/s.",
		func() float64 { return math.Float64frombits(l.uplinkBits.Load()) }, lbl)
	// Info-style gauge: the value is always 1, the labels identify the
	// filter's index-derivation scheme and bit layout so dashboards can
	// correlate FPR and latency shifts with a layout rollout.
	t.reg.GaugeFunc("p2pbound_filter_info", "Always 1; labels carry the filter's hash scheme and bit layout.",
		func() float64 { return 1 },
		metrics.L("hash_scheme", l.filter.Load().HashScheme().String()),
		metrics.L("layout", l.filter.Load().Layout().String()), lbl)
}

// attachPipeline registers one pipeline's verdict and shed counters
// under the next pipeline label. Called when a Pipeline or
// TenantPipeline starts with telemetry attached; both share the one
// pipeline label space.
func (t *Telemetry) attachPipeline(e *executor) {
	t.mu.Lock()
	idx := t.pipelines
	t.pipelines++
	t.mu.Unlock()
	lbl := metrics.L("pipeline", strconv.Itoa(idx))

	counter := func(c *metrics.Counter) func() float64 {
		return func() float64 { return float64(c.Value()) }
	}
	t.reg.CounterFunc("p2pbound_pipeline_verdicts_total", "Packets decided by the pipeline, by verdict.",
		counter(e.passed), metrics.L("verdict", "pass"), lbl)
	t.reg.CounterFunc("p2pbound_pipeline_verdicts_total", "Packets decided by the pipeline, by verdict.",
		counter(e.dropped), metrics.L("verdict", "drop"), lbl)
	t.reg.CounterFunc("p2pbound_pipeline_shed_total", "Packets shed undecided by the overload policy.",
		counter(e.shedPassed), metrics.L("verdict", "pass"), lbl)
	t.reg.CounterFunc("p2pbound_pipeline_shed_total", "Packets shed undecided by the overload policy.",
		counter(e.shedDropped), metrics.L("verdict", "drop"), lbl)
}

// attachTenantManager registers a TenantManager's control-plane series:
// population and spill accounting per manager, hydration churn and
// arena occupancy per tenant shard, and — when the hierarchical uplink
// budget is enabled — each shard's aggregate P_d and metered rate.
// Called from NewTenantManager when TenantManagerConfig.Telemetry is
// set; every closure reads atomics or takes the manager's control-plane
// mutex, so scrapes are safe concurrently with processing.
func (t *Telemetry) attachTenantManager(m *TenantManager) {
	t.mu.Lock()
	idx := t.tenantMgrs
	t.tenantMgrs++
	t.mu.Unlock()
	lbl := metrics.L("manager", strconv.Itoa(idx))

	t.reg.GaugeFunc("p2pbound_tenants", "Subscriber networks registered with the tenant manager.",
		func() float64 { return float64(m.Stats().Tenants) }, lbl)
	t.reg.CounterFunc("p2pbound_tenant_no_tenant_total", "Packets matching no registered subscriber, dropped defensively.",
		func() float64 { return float64(m.noTenant.Load()) }, lbl)
	t.reg.CounterFunc("p2pbound_tenant_unroutable_total", "Unclassifiable (non-IPv4) packets dropped defensively.",
		func() float64 { return float64(m.unroutable.Load()) }, lbl)
	for _, sh := range m.shards {
		sh := sh
		slbl := metrics.L("tshard", strconv.Itoa(sh.idx))
		t.reg.GaugeFunc("p2pbound_tenants_hydrated", "Tenants currently holding live filter vectors.",
			func() float64 { return float64(sh.hydrated.Load()) }, slbl, lbl)
		t.reg.CounterFunc("p2pbound_tenant_hydrations_total", "Tenants given live filter vectors.",
			func() float64 { return float64(sh.hydrations.Load()) }, slbl, lbl)
		t.reg.CounterFunc("p2pbound_tenant_evictions_total", "Tenants spilled out of live filter vectors.",
			func() float64 { return float64(sh.evictions.Load()) }, slbl, lbl)
		t.reg.GaugeFunc("p2pbound_tenant_spill_bytes", "Raw filter words currently held by spilled tenants.",
			func() float64 { return float64(sh.spillBytes.Load()) }, slbl, lbl)
		t.reg.GaugeFunc("p2pbound_tenant_arena_bytes", "Slab storage backing the shard's bit-vector arena.",
			func() float64 { return float64(sh.arena.FootprintBytes()) }, slbl, lbl)
		if sh.agg != nil {
			agg := sh.agg
			t.reg.GaugeFunc("p2pbound_aggregate_pd", "Aggregate-budget drop probability nested over every tenant's ramp.",
				func() float64 { return math.Float64frombits(agg.pdBits.Load()) }, slbl, lbl)
			t.reg.GaugeFunc("p2pbound_aggregate_uplink_bps", "Shard slice of the edge-wide metered uplink rate, bits/s.",
				func() float64 { return math.Float64frombits(agg.uplinkBits.Load()) }, slbl, lbl)
		}
	}
}

// attachTenant registers one subscriber's packet and drop counters
// under a tenant label. Opt-in via PerTenantTelemetry — five series per
// tenant is dashboard-friendly at hundreds of tenants and cardinality
// abuse at hundreds of thousands.
func (t *Telemetry) attachTenant(tn *tenant) {
	lbl := metrics.L("tenant", tn.id)
	stat := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(tn.lim.Stats())) }
	}
	t.reg.CounterFunc("p2pbound_tenant_packets_total", "Packets decided for this subscriber, by direction.",
		stat(func(s Stats) int64 { return s.OutboundPackets }), metrics.L("dir", "outbound"), lbl)
	t.reg.CounterFunc("p2pbound_tenant_packets_total", "Packets decided for this subscriber, by direction.",
		stat(func(s Stats) int64 { return s.InboundPackets }), metrics.L("dir", "inbound"), lbl)
	t.reg.CounterFunc("p2pbound_tenant_dropped_total", "Unmatched inbound packets dropped for this subscriber.",
		stat(func(s Stats) int64 { return s.Dropped }), lbl)
}

// attachReplicas registers a fleet's replication telemetry, one label
// set per member. Called from NewFleet when Config.Telemetry is set;
// the scrape closures read the replica nodes' atomic metric mirrors,
// so they are safe concurrently with processing and Sync.
func (t *Telemetry) attachReplicas(fl *Fleet) {
	t.mu.Lock()
	base := t.replicas
	t.replicas += len(fl.nodes)
	t.mu.Unlock()
	for i, node := range fl.nodes {
		n := node
		lbl := metrics.L("replica", strconv.Itoa(base+i))
		rm := func(pick func(replica.Metrics) int64) func() float64 {
			return func() float64 { return float64(pick(n.Metrics())) }
		}
		t.reg.CounterFunc("p2pbound_replica_delta_frames_total", "Delta frames broadcast by this member.",
			rm(func(m replica.Metrics) int64 { return m.DeltaFramesSent }), lbl)
		t.reg.CounterFunc("p2pbound_replica_delta_bytes_total", "Delta frame bytes sent by this member.",
			rm(func(m replica.Metrics) int64 { return m.DeltaBytesSent }), lbl)
		t.reg.CounterFunc("p2pbound_replica_digest_frames_total", "Anti-entropy digest frames sent.",
			rm(func(m replica.Metrics) int64 { return m.DigestFramesSent }), lbl)
		t.reg.CounterFunc("p2pbound_replica_digest_mismatches_total", "Digest ranges that disagreed with a peer.",
			rm(func(m replica.Metrics) int64 { return m.DigestMismatchRanges }), lbl)
		t.reg.CounterFunc("p2pbound_replica_repair_rounds_total", "Repair rounds triggered by digest mismatches.",
			rm(func(m replica.Metrics) int64 { return m.RepairRounds }), lbl)
		t.reg.CounterFunc("p2pbound_replica_repair_bytes_total", "Repair frame bytes pushed to peers.",
			rm(func(m replica.Metrics) int64 { return m.RepairBytesSent }), lbl)
		t.reg.CounterFunc("p2pbound_replica_frames_rejected_total", "Inbound frames rejected (corrupt, wrong geometry, malformed).",
			rm(func(m replica.Metrics) int64 { return m.FramesRejected }), lbl)
		t.reg.CounterFunc("p2pbound_replica_stale_sections_total", "Delta sections skipped for stale vector generations.",
			rm(func(m replica.Metrics) int64 { return m.StaleSections }), lbl)
		t.reg.GaugeFunc("p2pbound_replica_sync_lag_epochs", "Rotations this member last trailed the fleet by.",
			rm(func(m replica.Metrics) int64 { return m.SyncLagEpochs }), lbl)
		t.reg.GaugeFunc("p2pbound_replica_ready", "1 once the member's first full digest round matched every live peer.",
			func() float64 {
				if n.Ready() {
					return 1
				}
				return 0
			}, lbl)
	}
}

// DropTrace is one sampled drop decision, reported to Config.TraceFunc
// every Config.TraceEveryN drops: the socket pair the filter rejected,
// the P_d that won the draw, the uplink rate driving that P_d, and the
// rotation epoch locating the decision against the filter's expiry
// horizon.
type DropTrace struct {
	Timestamp time.Duration
	Protocol  Protocol
	SrcAddr   netip.Addr
	SrcPort   uint16
	DstAddr   netip.Addr
	DstPort   uint16
	// Pd is the drop probability applied to the packet.
	Pd float64
	// UplinkMbps is the measured uplink throughput at decision time.
	UplinkMbps float64
	// Epoch is the filter's rotation count at decision time.
	Epoch int64
}
