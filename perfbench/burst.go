package main

import (
	"sync"
	"time"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
)

// burstKernels are serve-burst's hot kernels, drawn burstWeights apart.
var (
	burstKernels = []string{"sobel", "dot-product"}
	burstWeights = []int{3, 1}
)

const (
	burstClients   = 16
	burstKeepEvery = 8 // responses each client keeps per kernel for the oracle
	burstCalm      = time.Second
)

// burstPhase is one timed phase of serve-burst.
type burstPhase struct {
	phaseResult
	wait, exec, handoff []float64 // ms per request
	batch               []float64
	muxed               int
	groups              []float64 // Σ 1/Lanes over muxed requests, per kernel
}

// runServeBurst is many users hitting hot kernels: 16 in-process
// closed-loop clients calling Catalog.Do against a PN4096 registry of
// sobel and dot-product, drawn 3:1.
func runServeBurst(cfg config) (*report, error) {
	rep := newReport(cfg)
	defer rep.probe.close()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	s, setups, err := setupServing(rep, cfg, burstKernels, "PN4096", tr)
	if err != nil {
		return nil, err
	}
	rep.setTimes("setup_s", setups...)
	defer s.cat.Close()
	if err := checkRefused(rep); err != nil {
		return nil, err
	}
	inputs, err := buildInputs(s.ctxOf, s.specs, cfg.Seed, false)
	if err != nil {
		return nil, err
	}

	res := burstLoad(cfg, s.cat, inputs, nil)
	rep.Attempted += res.attempted
	if res.failed > 0 {
		rep.fail(res.failed, "Catalog.Do errors")
	}
	rep.recordPhase(res.phaseResult, burstKernels)
	rep.Reconcile["burst_batching"] = map[string]float64{
		"avg_batch": batchMean(res.batch),
		"mux_share": float64(res.muxed) / float64(max(1, len(res.batch))),
		"wait_ms":   median(res.wait),
		"exec_ms":   median(res.exec),
	}
	rs := res.rs
	if cfg.Traced {
		before := s.cat.Sched.Stats()
		traced := burstLoad(cfg, s.cat, inputs, tr)
		after := s.cat.Sched.Stats()
		rep.Attempted += traced.attempted
		if traced.failed > 0 {
			rep.fail(traced.failed, "Catalog.Do errors (traced phase)")
		}
		rs = append(rs, traced.rs...)
		rep.tracingOverhead(traced.phaseResult)
		if t, ok := highestTail(traced.wait); ok {
			rep.Tails["serve.wait"] = t
			rep.Layers["serve.wait_p99_ms"] = t.Value
		}
		rep.Layers["serve.wait_p50_ms"] = median(traced.wait)
		rep.Layers["serve.exec_ms"] = median(traced.exec)
		rep.Layers["serve.avg_batch"] = batchMean(traced.batch)
		rep.Layers["serve.max_queue_depth"] = float64(after.MaxQueueDepth)
		done := len(traced.all())
		if done > 0 {
			rep.Layers["serve.mux_share"] = float64(traced.muxed) / float64(done)
		}
		capacity := 0.0
		for k, n := range burstKernels {
			if m := s.cat.Entry(n).Mux; m != nil {
				capacity += traced.groups[k] * float64(m.Lanes)
			}
		}
		if capacity > 0 {
			rep.Layers["serve.lane_fill"] = float64(traced.muxed) / capacity
		}
		rep.Reconcile["burst_latency"] = map[string]float64{
			"do_mean_ms":        mean(traced.all()),
			"wait_mean_ms":      mean(traced.wait),
			"exec_mean_ms":      mean(traced.exec),
			"handoff_mean_ms":   mean(traced.handoff),
			"sched_mux_groups":  float64(after.MuxGroups - before.MuxGroups),
			"sched_muxed":       float64(after.MuxedRequests - before.MuxedRequests),
			"sched_served":      float64(after.Served - before.Served),
			"client_muxed":      float64(traced.muxed),
			"client_completed":  float64(done),
			"sched_avg_batch":   after.AvgBatch,
			"wait_plus_exec_ms": mean(traced.wait) + mean(traced.exec),
		}
		if err := attributeServe(rep, s, inputs); err != nil {
			return nil, err
		}
		for k, n := range burstKernels {
			e := s.cat.Entry(n)
			if e.Mux == nil {
				continue
			}
			runner := s.cat.Ctx.NewMuxRunner(e.Mux)
			ctIns := make([][]*bfv.Ciphertext, e.Mux.Lanes)
			ptIns := make([][]quill.Vec, e.Mux.Lanes)
			for j := range ctIns {
				in := inputs[k][j%examplesPer]
				ctIns[j], ptIns[j] = in.req.CtIn, in.req.PtIn
			}
			var runErr error
			rep.Layers["backend.mux_run_ms."+n] = ms(repeatMedian(7, func() {
				if _, err := runner.Run(ctIns, ptIns); err != nil {
					runErr = err
				}
			}))
			if runErr != nil {
				return nil, runErr
			}
		}
		rep.Spans = tr.snapshot()
	}
	if err := finishServe(rep, s, inputs, rs); err != nil {
		return nil, err
	}
	return rep, nil
}

// batchMean is the mean batch size over batches, from the batch size
// each request reports: a batch of b requests is seen b times.
func batchMean(perRequest []float64) float64 {
	batches := 0.0
	for _, b := range perRequest {
		batches += 1 / b
	}
	if batches == 0 {
		return 0
	}
	return float64(len(perRequest)) / batches
}

// burstLoad runs burstClients closed-loop clients for one phase.
func burstLoad(cfg config, cat *serve.Catalog, inputs [][]input, tr *tracer) *burstPhase {
	type clientOut struct {
		lat                 [][]float64
		wait, exec, handoff []float64
		batch               []float64
		muxed               int
		groups              []float64
		attempted, failed   int
	}
	outs := make([]clientOut, burstClients)
	res := &burstPhase{phaseResult: phaseResult{lat: make([][]float64, len(burstKernels))}, groups: make([]float64, len(burstKernels))}
	for c := range outs {
		res.rs = append(res.rs, newReservoir(cfg.Seed, 2*c+b2i(tr != nil), len(burstKernels), burstKeepEvery))
	}
	// One untimed request per kernel first, to warm the sessions.
	for k, n := range burstKernels {
		in := inputs[k][0]
		if out := cat.Do(n, in.req.CtIn, in.req.PtIn); out.Err != nil {
			res.attempted++
			res.failed++
		}
	}
	// The clients keep both cores busy, and a probe that has to share
	// them reads scheduling as slowdown; so the machine's speed is read
	// in a calm second on either side of the phase.
	time.Sleep(burstCalm)
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([][]float64, len(burstKernels))
			o.groups = make([]float64, len(burstKernels))
			next := weightedSequence(cfg.Seed, c, burstWeights)
			for i := int64(0); time.Since(start) < cfg.phase(); i++ {
				r := next()
				in := inputs[r.Kernel][r.Example]
				id, t0 := tr.begin("serve.Catalog.Do."+burstKernels[r.Kernel], 0, int64(c)<<32|i)
				out := cat.Do(burstKernels[r.Kernel], in.req.CtIn, in.req.PtIn)
				d := tr.end(id, t0)
				o.attempted++
				if out.Err != nil {
					o.failed++
					continue
				}
				o.lat[r.Kernel] = append(o.lat[r.Kernel], ms(d))
				o.wait = append(o.wait, ms(out.Wait))
				o.exec = append(o.exec, ms(out.Latency-out.Wait))
				o.handoff = append(o.handoff, ms(d-out.Latency))
				o.batch = append(o.batch, float64(out.Batch))
				if out.Lanes >= 2 {
					o.muxed++
					o.groups[r.Kernel] += 1 / float64(out.Lanes)
				}
				res.rs[c].offer(r, func() kept { return kept{req: r, out: out.Out} })
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	end := time.Now()
	time.Sleep(burstCalm)
	res.calm = []window{{from: start.Add(-burstCalm), to: start}, {from: end, to: end.Add(burstCalm)}}
	for _, o := range outs {
		for k := range o.lat {
			res.lat[k] = append(res.lat[k], o.lat[k]...)
			res.groups[k] += o.groups[k]
		}
		res.wait = append(res.wait, o.wait...)
		res.exec = append(res.exec, o.exec...)
		res.handoff = append(res.handoff, o.handoff...)
		res.batch = append(res.batch, o.batch...)
		res.muxed += o.muxed
		res.attempted += o.attempted
		res.failed += o.failed
	}
	return res
}
