package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// served is a serving workload's state after set-up: the exporter's
// context (it holds the secret key the oracle decrypts with), the
// plans it compiled, and the catalog loaded from the decoded registry.
type served struct {
	names  []string
	specs  []*kernels.Spec
	ctx    *backend.Context
	plans  []*plan.ExecutionPlan
	cat    *serve.Catalog
	sample []input // the registry's embedded samples, one per kernel
	// step times of the last set-up, and the encoded registry size
	keys, export, encode, decode, load time.Duration
	keysAt                             time.Time
	registryBytes                      int
}

// ctxOf returns the exporter's context for every kernel: the serving
// workloads encrypt and decrypt all of theirs under one key.
func (s *served) ctxOf(int) *backend.Context { return s.ctx }

// setupServe runs the serving set-up path once: baseline programs →
// NewMuxServingContext → ExportRegistry (mux proofs and samples) →
// Encode → DecodeRegistry → LoadRegistry. It then decrypts every
// embedded sample's expected output with the exporter's secret key and
// refuses (reports) each kernel whose output does not match the
// specification.
func setupServe(names []string, preset string, seed int64, tr *tracer, parent int) (s *served, refused []string, err error) {
	s = &served{names: names}
	var ls []*quill.Lowered
	for _, n := range names {
		l, err := baseline.Lowered(n)
		if err != nil {
			return nil, nil, err
		}
		ls = append(ls, l)
		s.specs = append(s.specs, kernels.ByName(n))
	}
	s.keysAt = time.Now()
	if s.keys, err = tr.timed("backend.NewMuxServingContext", parent, func() error {
		var err error
		s.ctx, s.plans, err = backend.NewMuxServingContext(preset, 0, ls...)
		return err
	}); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, saltSetup)))
	samples := make([]*wire.Request, len(names))
	for i, spec := range s.specs {
		in, err := encryptExample(s.ctx, spec.RandomExample(rng))
		if err != nil {
			return nil, nil, err
		}
		s.sample = append(s.sample, in)
		samples[i] = in.req
	}
	var reg *wire.Registry
	if s.export, err = tr.timed("serve.ExportRegistry", parent, func() error {
		var err error
		reg, err = serve.ExportRegistry(s.ctx, names, s.plans, samples)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var data []byte
	if s.encode, err = tr.timed("wire.Registry.Encode", parent, func() error {
		var err error
		data, err = reg.Encode()
		return err
	}); err != nil {
		return nil, nil, err
	}
	s.registryBytes = len(data)
	var dec *wire.Registry
	if s.decode, err = tr.timed("wire.DecodeRegistry", parent, func() error {
		var err error
		dec, err = wire.DecodeRegistry(data)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if s.load, err = tr.timed("serve.LoadRegistry", parent, func() error {
		var err error
		s.cat, err = serve.LoadRegistry(dec, serve.Config{Workers: runtime.NumCPU()})
		return err
	}); err != nil {
		return nil, nil, err
	}
	for i, e := range reg.Entries {
		if !matches(s.ctx, s.specs[i], s.sample[i].ex, e.Expected) {
			refused = append(refused, e.Name)
		}
	}
	return s, refused, nil
}

// setupServing repeats the serving set-up per the run's config, closes
// every catalog but the last, records compile_s and the set-up layers,
// and returns the live state and each set-up's timing.
func setupServing(rep *report, cfg config, names []string, preset string, tr *tracer) (*served, []window, error) {
	rep.Stamp.Presets = []string{preset}
	var s *served
	var refused []string
	var compiles []window
	setups, err := repeatSetup(cfg, tr, func(parent int) error {
		if s != nil {
			s.cat.Close()
		}
		var err error
		s, refused, err = setupServe(names, preset, cfg.Seed, tr, parent)
		if err == nil {
			compiles = append(compiles, window{raw: s.keys.Seconds(), from: s.keysAt, to: s.keysAt.Add(s.keys)})
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Refused = refused
	// What turns the served programs into runnable form here is
	// NewMuxServingContext: plan compilation plus key generation. Time
	// it at least three times, counting the set-ups' own calls.
	for len(compiles) < 3 {
		var ls []*quill.Lowered
		for _, p := range s.plans {
			ls = append(ls, p.Source)
		}
		start := time.Now()
		if _, _, err := backend.NewMuxServingContext(preset, 0, ls...); err != nil {
			return nil, nil, err
		}
		compiles = append(compiles, window{raw: time.Since(start).Seconds(), from: start, to: time.Now()})
	}
	rep.setTimes("compile_s", compiles...)
	cfg2 := s.cat.Sched.Config()
	rep.Stamp.Scheduler = &cfg2
	rep.Layers["setup.keys_s"] = s.keys.Seconds()
	rep.Layers["setup.export_s"] = s.export.Seconds()
	rep.Layers["wire.registry_encode_s"] = s.encode.Seconds()
	rep.Layers["wire.registry_decode_s"] = s.decode.Seconds()
	rep.Layers["wire.registry_mb"] = float64(s.registryBytes) / (1 << 20)
	rep.Layers["serve.load_s"] = s.load.Seconds()
	return s, setups, nil
}

// attributeServe records the serving workloads' shared per-layer
// metrics: static counts, plan compile time, the mux-proof share of
// export, isolated runs of every kernel on the serving (sealed)
// context, isolated bfv/ring operations and the attribution residual.
func attributeServe(rep *report, s *served, inputs [][]input) error {
	for i, n := range s.names {
		recordStatic(rep.Layers, n, s.plans[i])
	}
	start := time.Now()
	for _, p := range s.plans {
		if _, err := plan.Compile(s.ctx.Params, s.ctx.Encoder, p.Source); err != nil {
			return err
		}
	}
	rep.Layers["plan.compile_ms_total"] = ms(time.Since(start))

	// The mux proofs are the part of export a context without the
	// secret key skips; the difference of the two exports is their cost.
	rlk, gks := s.ctx.EvalKeys()
	sealed, err := backend.NewSealedContext(s.ctx.Params, rlk, gks)
	if err != nil {
		return err
	}
	samples := make([]*wire.Request, len(s.sample))
	for i, in := range s.sample {
		samples[i] = in.req
	}
	start = time.Now()
	if _, err := serve.ExportRegistry(sealed, s.names, s.plans, samples); err != nil {
		return err
	}
	rep.Layers["setup.prove_mux_s"] = max(0, rep.Layers["setup.export_s"]-time.Since(start).Seconds())

	ops, err := measureOps(s.ctx, firstRotation(s.plans))
	if err != nil {
		return err
	}
	recordOps(rep.Layers, ops)
	residual := map[string]float64{}
	var pred, meas float64
	sess := s.cat.Ctx.NewSession()
	for i, n := range s.names {
		m, err := timeRuns(sess, s.cat.Entry(n).Plan, inputs[i][0], 5)
		if err != nil {
			return err
		}
		p := predictMS(s.plans[i].Source, ops)
		rep.Layers["backend.run_ms."+n] = m
		residual[n] = 1 - p/m
		pred += p
		meas += m
	}
	rep.Layers["attr.residual_share"] = 1 - pred/meas
	rep.Reconcile["attr_residual_share_per_kernel"] = residual
	return nil
}

// finishServe runs the oracle and records the end-of-run metrics common
// to both serving workloads.
func finishServe(rep *report, s *served, inputs [][]input, rs []*reservoir) error {
	if err := rep.oracle(s.ctxOf, s.specs, inputs, rs); err != nil {
		return err
	}
	rep.E2E["peak_rss_mb"] = peakRSSMB()
	return nil
}

// checkRefused fails the run when the set-up oracle refused a kernel:
// the benchmark serves nothing it cannot vouch for.
func checkRefused(rep *report) error {
	if len(rep.Refused) > 0 {
		return fmt.Errorf("set-up oracle refused %v: their registry samples decrypt wrong", rep.Refused)
	}
	return nil
}
