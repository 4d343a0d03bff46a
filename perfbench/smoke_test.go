package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload briefly, traced and untraced, and
// checks each completes correctly and measures every metric it prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the set-up of every workload (about two minutes)")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && name != "serve-burst" {
				continue // the traced path of the slow set-ups is covered by serve-burst
			}
			cfg := config{Workload: name, Seed: 3, Seconds: 1, Traced: traced, setups: 1}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct() || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d, refused %v", name, traced, rep.Attempted, rep.Failed, rep.Refused)
			}
			for _, d := range endToEnd {
				if v := rep.E2E[d.Name]; !(v > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, v)
				}
			}
			if traced {
				for _, n := range []string{"serve.mux_share", "serve.avg_batch", "backend.run_ms.sobel", "ring.ntt_us", "setup.export_s"} {
					if v := rep.Layers[n]; !(v > 0) {
						t.Errorf("%s traced: %s = %v, want > 0", name, n, v)
					}
				}
				if len(rep.Spans) == 0 {
					t.Errorf("%s traced: no spans recorded", name)
				}
			}
		}
	}
}

// TestBenchmarkSpecMatchesProgram keeps BENCHMARK.json's metric lists
// in step with the metrics the program prints.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}
