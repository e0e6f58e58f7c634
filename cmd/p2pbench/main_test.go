package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the repository root holds it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the
// program reports from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if want := []string{"bash", "cmd/p2pbench/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %q, want %q", f.Command, want)
	}
	if want := []string{"cmd/p2pbench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %q, want %q", f.Paths, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(f.EndToEnd), len(e2eMetrics))
	}
	for i, d := range e2eMetrics {
		got := f.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(f.PerLayer), len(layerMetrics))
	}
	for i, d := range layerMetrics {
		got := f.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
}

// TestQuickRuns runs every workload at smoke-test size, traced, through
// the command line, and checks what it prints: both lines parse, every
// metric BENCHMARK.json names is there with its unit, no packet failed,
// every layer listed for the workload recorded spans, and the layer times
// add up to the traced end-to-end time.
func TestQuickRuns(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spansPath := filepath.Join(t.TempDir(), "spans.json")
			var out bytes.Buffer
			err := mainErr([]string{"--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "1", "--quick", "--spans", spansPath}, &out)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if len(lines) != 2 {
				t.Fatalf("%d output lines, want 2:\n%s", len(lines), out.Bytes())
			}
			var rep struct{ Report report }
			if err := json.Unmarshal(lines[0], &rep); err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(lines[1], &res); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := res[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(res) != 4 {
				t.Errorf("result line has %d keys, want 4", len(res))
			}
			var r result
			if err := json.Unmarshal(lines[1], &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d, failures %+v", r.Correct, r.Failed, r.Attempted, rep.Report.Failures)
			}
			if rep.Report.FailFrac != 0 {
				t.Errorf("fail_frac = %g", rep.Report.FailFrac)
			}
			for _, m := range f.EndToEnd {
				if got, ok := rep.Report.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range f.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for name, m := range rep.Report.Layers {
				if m.Unit == "" {
					t.Errorf("layer metric %s has no unit", name)
				}
			}

			b, err := os.ReadFile(spansPath)
			if err != nil {
				t.Fatal(err)
			}
			var sp struct {
				Layers []string  `json:"layers"`
				Spans  [][]int64 `json:"spans"`
			}
			if err := json.Unmarshal(b, &sp); err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for _, s := range sp.Spans {
				seen[sp.Layers[s[1]]]++
			}
			for _, l := range append([]layer{lBatch}, w.layers...) {
				if seen[layerNames[l]] == 0 {
					t.Errorf("no %s span", layerNames[l])
				}
			}

			// Σ self times of the path's layers + residual = traced e2e.
			lm := rep.Report.Layers
			e2e := lm["e2e.ns_per_pkt"].Value
			sum := lm["residual.ns_per_pkt"].Value
			for _, l := range w.path {
				if l == lLimiter {
					sum += lm["hashes.ns_per_pkt"].Value + lm["core.self_ns_per_pkt"].Value + lm["limiter.self_ns_per_pkt"].Value
					continue
				}
				sum += pathLayerNsPerPkt(t, lm, l)
			}
			if math.Abs(sum-e2e) > 1e-6*e2e {
				t.Errorf("layer self times + residual = %g ns/pkt, traced e2e = %g", sum, e2e)
			}
		})
	}
}

// pathLayerNsPerPkt returns the reported time per packet of a path layer
// other than the limiter.
func pathLayerNsPerPkt(t *testing.T, m map[string]metric, l layer) float64 {
	t.Helper()
	name := map[layer]string{
		lIngest:         "ingest.ns_per_pkt",
		lMetrics:        "metrics.scrape_ns_per_pkt",
		lPipelineSubmit: "pipeline.submit_ns_per_pkt",
		lPipelineDrain:  "pipeline.drain_wait_ns_per_pkt",
		lTenantSubmit:   "tenant.submit_ns_per_pkt",
		lTenantDrain:    "tenant.drain_wait_ns_per_pkt",
		lProbe:          "offload.probe_ns",
		lPublish:        "offload.publish_ns_per_pkt",
	}[l]
	v, ok := m[name]
	if !ok {
		t.Fatalf("path layer %s reports no %s", layerNames[l], name)
	}
	return v.Value
}

// TestInputsDependOnSeedAlone checks that the same seed makes the same
// inputs and another seed other inputs, for every input generator.
func TestInputsDependOnSeedAlone(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"campus", "isp-large", "offload"} {
		w := findWorkload(name)
		d := func(seed uint64) string {
			in, err := w.gen(seed, true)
			if err != nil {
				t.Fatal(err)
			}
			defer in.cleanup()
			return in.digest
		}
		a, b, c := d(1), d(1), d(2)
		if a != b {
			t.Errorf("%s: seed 1 made inputs %s and then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 made the same inputs %s", name, a)
		}
	}
}
