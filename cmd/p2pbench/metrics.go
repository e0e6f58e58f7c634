package main

// metricDef is one metric BENCHMARK.json declares. End-to-end metrics
// carry the direction in which they improve and the bound: the share of
// the baseline median by which a change may worsen them before it counts
// as a regression.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // 0 for per-layer metrics, which have none
}

// e2eMetrics are the end-to-end metrics every run prints with --trace 0,
// in BENCHMARK.json's order.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pps", "pkt/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"batch_p99_us", "us", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// layerMetrics are the per-layer metrics every run prints with --trace 1,
// in BENCHMARK.json's order: the ones every workload has. The layers only
// some workloads have are in the report line's "layers" (README.md).
var layerMetrics = []metricDef{
	{name: "e2e.ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "hashes.ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "core.ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "core.self_ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "limiter.ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "limiter.self_ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "limiter.matched_frac", unit: "fraction", better: "higher"},
	{name: "limiter.drop_frac", unit: "fraction", better: "lower"},
	{name: "limiter.fpr", unit: "fraction", better: "lower"},
	{name: "runtime.alloc_b_per_pkt", unit: "B/pkt", better: "lower"},
	{name: "limiter.rotations", unit: "count", better: "lower"},
	{name: "residual.ns_per_pkt", unit: "ns/pkt", better: "lower"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.calib_ns", unit: "ns", better: "lower"},
}

// extraUnits are the units of the report-only metrics.
var extraUnits = map[string]string{
	"limiter.time_anomalies":         "count",
	"ingest.ns_per_pkt":              "ns/pkt",
	"ingest.malformed":               "count",
	"ingest.clock_regressions":       "count",
	"metrics.scrape_ns_per_pkt":      "ns/pkt",
	"metrics.scrape_us":              "us",
	"route.ns_per_pkt":               "ns/pkt",
	"pipeline.submit_ns_per_pkt":     "ns/pkt",
	"pipeline.drain_wait_us":         "us",
	"pipeline.drain_wait_ns_per_pkt": "ns/pkt",
	"pipeline.shed":                  "count",
	"offload.probe_ns":               "ns/pkt",
	"offload.hit_frac":               "fraction",
	"offload.retries":                "count",
	"offload.ring_overflow":          "count",
	"offload.publish_ns_per_pkt":     "ns/pkt",
	"offload.publish_us_p50":         "us",
	"offload.publish_us_p99":         "us",
	"tenant.submit_ns_per_pkt":       "ns/pkt",
	"tenant.drain_wait_us":           "us",
	"tenant.drain_wait_ns_per_pkt":   "ns/pkt",
	"tenant.hydrations_per_kpkt":     "1/kpkt",
	"tenant.evictions_per_kpkt":      "1/kpkt",
	"tenant.spill_bytes":             "B",
	"tenant.arena_bytes":             "B",
	"tenant.shed":                    "count",
}

// unitOf returns the unit of a reported metric, or "" for a name no table
// knows.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return extraUnits[name]
}
