// Command perfbench is the repository's benchmark: one command that
// measures compile time, generated-code latency and serving through
// the public API of the internal packages, checks every output it
// samples against the kernel specification, and prints one JSON result
// line.
//
//	perfbench --workload compile-suite|serve-suite-http|serve-burst \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (spans
// around every call the benchmark makes, an untraced and a traced load
// phase for the tracing overhead, and an attribution pass timing
// Session.Run, MuxRunner.Run and the bfv/ring operations in isolation).
// Reports and spans are written under .bench_build/perfbench/. See
// NOTES.md for the workloads, metrics and findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings, all fixed by the command line.
type config struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// setups is how many times the workload's set-up is repeated to
	// report setup_s as a median.
	setups int
}

func (c config) phase() time.Duration { return time.Duration(c.Seconds) * time.Second }

// report is everything one run measured.
type report struct {
	Config    config             `json:"config"`
	Stamp     stamp              `json:"stamp"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Refused   []string           `json:"refused_kernels,omitempty"`
	E2E       map[string]float64 `json:"end_to_end"`
	Raw       map[string]float64 `json:"end_to_end_raw"`
	Slowdown  map[string]float64 `json:"probe_slowdown"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Tails     map[string]tail    `json:"tails"`
	Reconcile map[string]any     `json:"reconciliation,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	probe *speedProbe
}

func newReport(cfg config) *report {
	return &report{
		Config:    cfg,
		Stamp:     machineStamp(),
		E2E:       map[string]float64{},
		Raw:       map[string]float64{},
		Slowdown:  map[string]float64{},
		Layers:    map[string]float64{},
		Tails:     map[string]tail{},
		Reconcile: map[string]any{},
		probe:     startProbe(),
	}
}

// window is one timed measurement: its raw value and when it ran.
// calm, when set, holds the windows the machine's slowdown is read in
// instead of [from, to] (see burstLoad).
type window struct {
	raw      float64
	from, to time.Time
	calm     []window
}

// probeWindows returns where w's slowdown is read.
func (w window) probeWindows() []window {
	if len(w.calm) > 0 {
		return w.calm
	}
	return []window{w}
}

// setTimes records a time-like end-to-end metric as the median of its
// measurements, each divided by the machine's slowdown over its own
// window; the raw median and the implied slowdown go to the report.
func (r *report) setTimes(name string, ws ...window) {
	var raw, scaled []float64
	for _, w := range ws {
		raw = append(raw, w.raw)
		scaled = append(scaled, w.raw/r.probe.slowdown(w.probeWindows()...))
	}
	r.Raw[name], r.E2E[name] = median(raw), median(scaled)
	r.Slowdown[name] = r.Raw[name] / r.E2E[name]
}

// setRate records a rate measured over w, multiplied by the machine's
// slowdown over that window.
func (r *report) setRate(name string, w window) {
	s := r.probe.slowdown(w.probeWindows()...)
	r.Raw[name], r.E2E[name], r.Slowdown[name] = w.raw, w.raw*s, s
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Refused) == 0 }

// fail records n failed operations with a reason on standard error.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %d: %s\n", n, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"compile-suite":    runCompileSuite,
	"serve-suite-http": runServeHTTP,
	"serve-burst":      runServeBurst,
}

func main() {
	var (
		workload = flag.String("workload", "", "compile-suite, serve-suite-http or serve-burst")
		seed     = flag.Int64("seed", 1, "seed of every generated input, draw order and response sample")
		seconds  = flag.Int("seconds", 10, "length of each timed load phase")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == 1, setups: 5}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := emit(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// emit writes the run's report file, prints the human-readable lines
// and ends standard output with the one-line JSON result.
func emit(rep *report) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Config.Workload, rep.Config.Seed, b2i(rep.Config.Traced))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return err
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": rep.Stamp, "config": rep.Config})
	if err != nil {
		return err
	}
	fmt.Println(string(stampLine))
	printHuman(rep)

	defs, values := endToEnd, rep.E2E
	if rep.Config.Traced {
		defs, values = perLayer(), rep.Layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !rep.Config.Traced {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit} // a layer the workload bypasses reads 0
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printHuman(rep *report) {
	fmt.Printf("%s seed=%d seconds=%d traced=%v: attempted %d, succeeded %d, failed %d\n",
		rep.Config.Workload, rep.Config.Seed, rep.Config.Seconds, rep.Config.Traced,
		rep.Attempted, rep.Attempted-rep.Failed, rep.Failed)
	if len(rep.Refused) > 0 {
		fmt.Printf("  refused to serve (set-up oracle): %v\n", rep.Refused)
	}
	for _, d := range endToEnd {
		if v, ok := rep.E2E[d.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s", d.Name, v, d.Unit)
			if raw, ok := rep.Raw[d.Name]; ok {
				fmt.Printf("  (raw %.4f, machine slowdown %.3f)", raw, rep.Slowdown[d.Name])
			}
			fmt.Println()
		}
	}
	for _, k := range sortedKeys(rep.Tails) {
		t := rep.Tails[k]
		fmt.Printf("  %-32s p%g = %.4f ms (n=%d, %d beyond)\n", k, t.Pct, t.Value, t.N, t.Beyond)
	}
	if rep.Config.Traced {
		for _, d := range perLayer() {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, rep.Layers[d.Name], d.Unit)
		}
	}
	for _, k := range sortedKeys(rep.Reconcile) {
		b, _ := json.Marshal(rep.Reconcile[k]) // plain maps and numbers always marshal
		fmt.Printf("  reconcile %s: %s\n", k, b)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
