package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"porcupine/internal/core"
	"porcupine/internal/serve"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see NOTES.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"latency_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// synthKernels are the directly synthesized kernels compile-suite
// builds: every one but roberts-cross, whose search alone outlasts a
// run.
func synthKernels() []string {
	var out []string
	for _, n := range core.DirectKernels() {
		if n != "roberts-cross" {
			out = append(out, n)
		}
	}
	return out
}

// perLayer lists the per-layer metrics of a traced run. A workload that
// does not exercise a layer reports 0 for it.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	for _, k := range synthKernels() {
		add("s", "synth.time_s."+k)
	}
	for _, k := range synthKernels() {
		add("count", "synth.nodes."+k)
	}
	add("nodes/s", "synth.nodes_per_s")
	add("ratio", "synth.optimize_share")
	add("MB", "synth.heap_peak_mb")
	add("s", "compose.time_s.sobel", "compose.time_s.harris")
	for _, k := range core.AllKernels() {
		add("count", "quill.instrs."+k)
	}
	for _, k := range core.AllKernels() {
		add("count", "plan.steps."+k)
	}
	add("count", "plan.decomps_total", "plan.transforms_total")
	add("ms", "plan.compile_ms_total")
	add("s", "setup.keys_s", "setup.export_s", "setup.prove_mux_s",
		"wire.registry_encode_s", "wire.registry_decode_s")
	add("MB", "wire.registry_mb")
	add("s", "serve.load_s")
	add("ms", "http.overhead_ms", "wire.decode_request_ms", "wire.encode_response_ms")
	add("kB", "wire.request_kb")
	for _, k := range core.AllKernels() {
		add("ms", "backend.run_ms."+k)
	}
	add("ms", "bfv.mulrelin_ms", "bfv.rotate_ms", "bfv.mulplain_ms")
	add("us", "ring.ntt_us", "ring.intt_us", "ring.lift_us", "ring.scaledown_us", "ring.mulaccum_us")
	add("ms", "serve.wait_p50_ms", "serve.wait_p99_ms", "serve.exec_ms")
	add("count", "serve.avg_batch")
	add("ratio", "serve.mux_share", "serve.lane_fill")
	add("count", "serve.max_queue_depth")
	for _, k := range burstKernels {
		add("ms", "backend.mux_run_ms."+k)
	}
	add("ratio", "attr.residual_share", "trace.overhead_share")
	add("ms", "latency.p50_ms", "latency.tail_ms")
	add("count", "latency.samples")
	return defs
}

// stamp identifies the machine and configuration behind a record.
type stamp struct {
	NumCPU     int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPU        string        `json:"cpu"`
	ISA        []string      `json:"isa"`
	GoVersion  string        `json:"go"`
	Commit     string        `json:"commit"`
	Presets    []string      `json:"presets,omitempty"`
	Scheduler  *serve.Config `json:"scheduler,omitempty"`
}

func machineStamp() stamp {
	s := stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if s.CPU == "unknown" {
					s.CPU = strings.TrimSpace(val)
				}
			case "flags":
				if s.ISA == nil {
					s.ISA = []string{}
					for _, fl := range strings.Fields(val) {
						if fl == "avx2" || fl == "avx512f" || fl == "avx512ifma" {
							s.ISA = append(s.ISA, fl)
						}
					}
				}
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// peakRSSMB returns the process's resident-set high-water mark
// (VmHWM), falling back to the Go runtime's OS reservation where
// /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
