package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny shrinks a workload to a size that runs in about a second while
// keeping its deployment and traffic shape.
func tiny(t *testing.T, name string) config {
	t.Helper()
	cfg, err := workloadByName(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.n, cfg.pool, cfg.checks, cfg.setups = 20_000, 8, 40, 2
	cfg.seal = 40 * time.Millisecond
	return cfg
}

func tinyRun(t *testing.T, cfg config, traced, tamper bool) *outcome {
	t.Helper()
	transport := &http.Transport{MaxIdleConnsPerHost: 8}
	defer transport.CloseIdleConnections()
	env := &runEnv{client: &http.Client{Transport: transport}, tamper: tamper}
	if traced {
		env.tr = newTracer()
	}
	out, err := run(cfg, 3, 300*time.Millisecond, env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Every workload passes the correctness gate at tiny scale, in both the
// untraced and the traced variant, and fails it once the reference is
// tampered with.
func TestTinyWorkloadsPassTheGate(t *testing.T) {
	for _, cfg := range workloads(2) {
		t.Run(cfg.name, func(t *testing.T) {
			cfg := tiny(t, cfg.name)
			for _, traced := range []bool{false, true} {
				out := tinyRun(t, cfg, traced, false)
				if !out.correct || out.failed != 0 || out.attempted == 0 {
					t.Fatalf("traced=%t: correct=%t failed=%d/%d gate: %v", traced, out.correct, out.failed, out.attempted, out.gateErr)
				}
				for _, m := range out.metrics {
					// The result line is JSON, which has no NaN or Inf.
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("traced=%t: %s = %v", traced, m.name, m.value)
					}
					if m.name == "gen.reports_acked" && m.value == 0 {
						t.Errorf("traced run acknowledged no reports")
					}
				}
			}
			if out := tinyRun(t, cfg, false, true); out.correct || out.gateErr == nil {
				t.Fatalf("gate passed against a tampered reference")
			}
		})
	}
}

// The workloads and the metrics a run prints are exactly the ones
// BENCHMARK.json declares, with the same reasons and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(2)
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name || w.why != spec.Workloads[i].Why {
			t.Errorf("workload %d is %q (%s), BENCHMARK.json declares %+v", i, w.name, w.why, spec.Workloads[i])
		}
	}
	cfg := tiny(t, "live-ingest")
	for _, tc := range []struct {
		traced bool
		want   []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var got []decl
		for _, m := range tinyRun(t, cfg, tc.traced, false).metrics {
			got = append(got, decl{m.name, m.unit})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("traced=%t prints\n%v\nBENCHMARK.json declares\n%v", tc.traced, got, tc.want)
		}
	}
}
