package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/core"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/synth"
)

// presetFor is the paper harness's parameter choice: PN8192 when the
// kernel's multiplicative depth is above 2, PN4096 otherwise.
func presetFor(l *quill.Lowered) string {
	if l.MultDepth() > 2 {
		return "PN8192"
	}
	return "PN4096"
}

// genTarget is one compiled kernel ready to run: its context (one per
// preset, shared by the kernels of that preset) and its plan.
type genTarget struct {
	name string
	spec *kernels.Spec
	ctx  *backend.Context
	plan *plan.ExecutionPlan
}

// runCompileSuite is what a compiler user pays: one cold BuildSuite of
// the synthesized kernels plus sobel and harris, then each generated
// plan run one request at a time on one Session per preset.
func runCompileSuite(cfg config) (*report, error) {
	rep := newReport(cfg)
	defer rep.probe.close()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	names := append(synthKernels(), core.MultiStepKernels()...)

	cache, err := synth.OpenCache("")
	if err != nil {
		return nil, err
	}
	var stopHeap func() float64
	if cfg.Traced {
		stopHeap = sampleHeap()
	}
	var brep *core.BuildReport
	buildStart := time.Now()
	compileDur, err := tr.timed("core.BuildSuite", 0, func() error {
		var err error
		brep, err = core.BuildSuite(names, core.BuildOptions{
			Workers:    runtime.NumCPU(),
			Cache:      cache,
			PlanPreset: "PN4096",
		})
		return err
	})
	if stopHeap != nil {
		rep.Layers["synth.heap_peak_mb"] = stopHeap()
	}
	if err != nil {
		return nil, err
	}
	if failed := brep.Failed(); len(failed) > 0 {
		return nil, fmt.Errorf("kernels failed to compile: %v", failed)
	}
	rep.setTimes("compile_s", window{raw: compileDur.Seconds(), from: buildStart, to: buildStart.Add(compileDur)})

	// Group the compiled programs by preset; set-up is building each
	// preset's serving context (plans and keys) for its kernels.
	var presets []string
	byPreset := map[string][]int{}
	for i, n := range names {
		p := presetFor(brep.Entries[n].Compiled.Lowered)
		if byPreset[p] == nil {
			presets = append(presets, p)
		}
		byPreset[p] = append(byPreset[p], i)
	}
	rep.Stamp.Presets = presets
	targets := make([]genTarget, len(names))
	setup := func(parent int) error {
		for _, p := range presets {
			var ls []*quill.Lowered
			for _, i := range byPreset[p] {
				ls = append(ls, brep.Entries[names[i]].Compiled.Lowered)
			}
			var ctx *backend.Context
			var plans []*plan.ExecutionPlan
			if _, err := tr.timed("backend.NewServingContext."+p, parent, func() error {
				var err error
				ctx, plans, err = backend.NewServingContext(p, ls...)
				return err
			}); err != nil {
				return err
			}
			for j, i := range byPreset[p] {
				targets[i] = genTarget{name: names[i], spec: kernels.ByName(names[i]), ctx: ctx, plan: plans[j]}
			}
		}
		return nil
	}
	setups, err := repeatSetup(cfg, tr, setup)
	if err != nil {
		return nil, err
	}
	rep.setTimes("setup_s", setups...)
	rep.Layers["setup.keys_s"] = rep.Raw["setup_s"]

	specs := make([]*kernels.Spec, len(targets))
	for i, t := range targets {
		specs[i] = t.spec
	}
	// Each kernel encrypts and decrypts under its own preset's context.
	ctxOf := func(k int) *backend.Context { return targets[k].ctx }
	inputs, err := buildInputs(ctxOf, specs, cfg.Seed, false)
	if err != nil {
		return nil, err
	}

	res := genPhase(cfg, targets, inputs, nil)
	rep.Attempted += res.attempted
	if res.failed > 0 {
		rep.fail(res.failed, "Session.Run errors")
	}
	rep.recordPhase(*res, names)
	if cfg.Traced {
		traced := genPhase(cfg, targets, inputs, tr)
		rep.Attempted += traced.attempted
		if traced.failed > 0 {
			rep.fail(traced.failed, "Session.Run errors (traced phase)")
		}
		rep.tracingOverhead(*traced)
		res.rs = append(res.rs, traced.rs...)
	}
	if err := rep.oracle(ctxOf, specs, inputs, res.rs); err != nil {
		return nil, err
	}

	if cfg.Traced {
		if err := attributeCompile(rep, brep, targets, inputs); err != nil {
			return nil, err
		}
		rep.Spans = tr.snapshot()
	}
	rep.E2E["peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// repeatSetup runs setup cfg.setups times (once when traced) and
// returns each run's wall time in seconds; the last set-up stays live.
func repeatSetup(cfg config, tr *tracer, setup func(parent int) error) ([]window, error) {
	n := cfg.setups
	if cfg.Traced || n < 1 {
		n = 1
	}
	var ws []window
	for i := 0; i < n; i++ {
		runtime.GC()
		id, start := tr.begin("setup", 0, -1)
		if err := setup(id); err != nil {
			return nil, err
		}
		d := tr.end(id, start)
		ws = append(ws, window{raw: d.Seconds(), from: start, to: start.Add(d)})
	}
	return ws, nil
}

// phaseResult is the outcome of one timed load phase.
type phaseResult struct {
	lat       [][]float64 // per kernel, ms
	attempted int
	failed    int
	start     time.Time
	wall      time.Duration
	calm      []window // where to read the machine's slowdown, if not the phase
	rs        []*reservoir
}

// window returns a value measured over the phase.
func (r *phaseResult) window(raw float64) window {
	return window{raw: raw, from: r.start, to: r.start.Add(r.wall), calm: r.calm}
}

// summary returns the geometric mean over kernels of each kernel's
// median latency, and completed requests per second.
func (r *phaseResult) summary() (latencyMS, rps float64) {
	var meds []float64
	done := 0
	for _, xs := range r.lat {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
		done += len(xs)
	}
	return geomean(meds), float64(done) / r.wall.Seconds()
}

func (r *phaseResult) all() []float64 {
	var out []float64
	for _, xs := range r.lat {
		out = append(out, xs...)
	}
	return out
}

// recordPhase stores an untraced phase's end-to-end latency and
// throughput, each kernel's median, and the latency median and highest
// supported percentile with its counts.
func (rep *report) recordPhase(r phaseResult, names []string) {
	latency, rps := r.summary()
	rep.setTimes("latency_ms", r.window(latency))
	rep.setRate("throughput_rps", r.window(rps))
	perKernel := map[string]float64{}
	for k, xs := range r.lat {
		perKernel[names[k]] = median(xs)
	}
	rep.Reconcile["per_kernel_median_ms"] = perKernel
	all := r.all()
	t, ok := highestTail(all)
	if ok {
		rep.Tails["latency"] = t
	}
	rep.Layers["latency.p50_ms"] = median(all)
	rep.Layers["latency.tail_ms"] = t.Value
	rep.Layers["latency.samples"] = float64(len(all))
}

// tracingOverhead compares the traced phase's latency_ms with the
// untraced one's, each scaled by the machine's slowdown over its own
// phase.
func (rep *report) tracingOverhead(traced phaseResult) {
	latency, _ := traced.summary()
	scaled := latency / rep.probe.slowdown(traced.window(latency).probeWindows()...)
	rep.Layers["trace.overhead_share"] = scaled/rep.E2E["latency_ms"] - 1
	rep.Reconcile["tracing_overhead"] = map[string]float64{
		"untraced_latency_ms": rep.E2E["latency_ms"], "traced_latency_ms": scaled,
	}
}

// genPhase runs the generated plans one request at a time, in seeded
// rounds over the kernels, for one phase.
func genPhase(cfg config, targets []genTarget, inputs [][]input, tr *tracer) *phaseResult {
	res := &phaseResult{lat: make([][]float64, len(targets))}
	rs := newReservoir(cfg.Seed, b2i(tr != nil), len(targets), samplesPer)
	res.rs = []*reservoir{rs}
	sessions := map[*backend.Context]*backend.Session{}
	for _, t := range targets {
		if sessions[t.ctx] == nil {
			sessions[t.ctx] = t.ctx.NewSession()
		}
	}
	// One untimed run per kernel first, so session buffers have grown
	// to every plan's shape before timing starts.
	for k, t := range targets {
		in := inputs[k][0]
		if _, err := sessions[t.ctx].Run(t.plan, in.req.CtIn, in.req.PtIn); err != nil {
			res.attempted++
			res.failed++
		}
	}
	next := roundsSequence(cfg.Seed, len(targets))
	runtime.GC()
	start := time.Now()
	res.start = start
	for req := int64(0); time.Since(start) < cfg.phase(); req++ {
		r := next()
		t, in := targets[r.Kernel], inputs[r.Kernel][r.Example]
		id, t0 := tr.begin("backend.Session.Run", 0, req)
		out, err := sessions[t.ctx].Run(t.plan, in.req.CtIn, in.req.PtIn)
		d := tr.end(id, t0)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.lat[r.Kernel] = append(res.lat[r.Kernel], ms(d))
		rs.offer(r, func() kept { return kept{req: r, out: t.ctx.Params.CopyCiphertext(out)} })
	}
	res.wall = time.Since(start)
	return res
}

// attributeCompile records compile-suite's per-layer metrics: synthesis
// and composition from the build report, static plan counts, plan
// compile time, isolated run and operation times, and the attribution
// residual.
func attributeCompile(rep *report, brep *core.BuildReport, targets []genTarget, inputs [][]input) error {
	var nodes, total, optimize float64
	for _, n := range synthKernels() {
		e := brep.Entries[n]
		res := e.Compiled.Result
		rep.Layers["synth.time_s."+n] = e.Wall.Seconds()
		rep.Layers["synth.nodes."+n] = float64(res.Nodes)
		nodes += float64(res.Nodes)
		total += res.TotalTime.Seconds()
		optimize += (res.TotalTime - res.InitialTime).Seconds()
	}
	if total > 0 {
		rep.Layers["synth.nodes_per_s"] = nodes / total
		rep.Layers["synth.optimize_share"] = optimize / total
	}
	for _, n := range core.MultiStepKernels() {
		rep.Layers["compose.time_s."+n] = brep.Entries[n].Wall.Seconds()
	}

	var compile time.Duration
	for _, t := range targets {
		start := time.Now()
		if _, err := plan.Compile(t.ctx.Params, t.ctx.Encoder, t.plan.Source); err != nil {
			return err
		}
		compile += time.Since(start)
		recordStatic(rep.Layers, t.name, t.plan)
	}
	rep.Layers["plan.compile_ms_total"] = ms(compile)

	plansOf := map[*backend.Context][]*plan.ExecutionPlan{}
	for _, t := range targets {
		plansOf[t.ctx] = append(plansOf[t.ctx], t.plan)
	}
	ops := map[*backend.Context]opTimes{}
	for ctx, plans := range plansOf {
		o, err := measureOps(ctx, firstRotation(plans))
		if err != nil {
			return err
		}
		ops[ctx] = o
		if ctx.Params.Name() == "PN4096" { // the preset most kernels run at
			recordOps(rep.Layers, o)
		}
	}
	residual := map[string]float64{}
	var pred, meas float64
	for i, t := range targets {
		m, err := timeRuns(t.ctx.NewSession(), t.plan, inputs[i][0], 7)
		if err != nil {
			return err
		}
		p := predictMS(t.plan.Source, ops[t.ctx])
		rep.Layers["backend.run_ms."+t.name] = m
		residual[t.name] = 1 - p/m
		pred += p
		meas += m
	}
	rep.Layers["attr.residual_share"] = 1 - pred/meas
	rep.Reconcile["attr_residual_share_per_kernel"] = residual
	return nil
}

// sampleHeap polls the live heap every few milliseconds until the
// returned stop function is called, which reports the peak in MB.
func sampleHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var (
		peak uint64
		wg   sync.WaitGroup
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}
