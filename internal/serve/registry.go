package serve

import (
	"fmt"
	"sync"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/wire"
)

// CatalogEntry is one kernel a serving process hosts: the plan, its
// proven mux lane geometry (nil when per-request only), and the
// exporter's embedded differential sample.
type CatalogEntry struct {
	Name     string
	Plan     *plan.ExecutionPlan
	Mux      *plan.Mux // nil for mux-ineligible kernels
	Sample   *wire.Request
	Expected *bfv.Ciphertext
}

// Catalog is the serving half of a registry: one shared backend
// context and one scheduler hosting every kernel of the manifest.
// Mux-eligible kernels are registered with the scheduler so that
// coalesced batches of the same kernel run lane-packed.
type Catalog struct {
	Ctx   *backend.Context
	Sched *Scheduler

	entries map[string]*CatalogEntry
	order   []string

	// Self-tests run on a private session: the expectation is exact
	// ciphertext bit-identity with the exporter, which only per-request
	// execution reproduces (a lane-packed run yields a different —
	// though equally correct — ciphertext).
	stMu   sync.Mutex
	stSess *backend.Session
}

// ExportRegistry packages the context's kernels into a wire registry.
// names, plans and samples are parallel; samples[i] may be nil to skip
// that kernel's embedded differential check, or samples itself may be
// nil. Each plan's mux lane geometry is derived here (plan.MuxParams)
// and stamped into the manifest — but only when the context's Galois
// keys cover the pack/demux rotations, so the artifact always passes
// its own decode-time coverage validation, and only when the geometry
// survives an end-to-end decrypted proof (backend.ProveMux): static
// legality cannot see the preset's noise budget, and a kernel whose
// lane-packed evaluation decrypts wrong is silently demoted to
// per-request serving rather than shipped as a wrong-answer machine.
// Only public material crosses: evaluation keys, pre-encoded
// constants, and (in samples) ciphertexts.
//
// Kernels are exported one after another; each proof spreads its work
// over runtime.GOMAXPROCS(0) goroutines with a deterministic
// encryption order, so the registry — every stamped or demoted
// geometry — does not depend on the core count or on scheduling.
func ExportRegistry(ctx *backend.Context, names []string, plans []*plan.ExecutionPlan, samples []*wire.Request) (*wire.Registry, error) {
	if len(names) != len(plans) {
		return nil, fmt.Errorf("serve: %d names for %d plans", len(names), len(plans))
	}
	if samples != nil && len(samples) != len(plans) {
		return nil, fmt.Errorf("serve: %d samples for %d plans", len(samples), len(plans))
	}
	rlk, gks := ctx.EvalKeys()
	if rlk == nil || gks == nil {
		return nil, fmt.Errorf("serve: context holds no evaluation keys to export")
	}
	reg := &wire.Registry{
		Preset: ctx.Params.Name(),
		Params: ctx.Params,
		Relin:  rlk,
		Galois: gks,
	}
	slots := ctx.Params.SlotCount()
	var sess *backend.Session
	for i, p := range plans {
		e := wire.RegistryEntry{Name: names[i], Plan: p}
		if stride, lanes, _ := plan.MuxParams(p, slots, plan.DefaultMaxLanes); lanes >= 2 {
			covered := true
			for _, rot := range plan.MuxRotations(stride, lanes) {
				if g := ctx.Params.GaloisElement(rot); g != 1 && !gks.HasElement(g) {
					covered = false
					break
				}
			}
			if covered {
				m, err := plan.BuildMuxWith(ctx.Params, ctx.Encoder, p, stride, lanes)
				if err != nil {
					return nil, fmt.Errorf("serve: kernel %q mux: %w", names[i], err)
				}
				// Noise-budget proof: two trials with independent
				// encryption randomness; a failure demotes the kernel, it
				// does not fail the export.
				if ctx.CanDecrypt() {
					if err := ctx.ProveMux(m, 41+int64(i), 2); err == nil {
						e.MuxStride, e.MuxLanes = stride, lanes
					}
				} else {
					e.MuxStride, e.MuxLanes = stride, lanes
				}
			}
		}
		if samples != nil && samples[i] != nil {
			if sess == nil {
				sess = ctx.NewSession()
			}
			out, err := sess.Run(p, samples[i].CtIn, samples[i].PtIn)
			if err != nil {
				return nil, fmt.Errorf("serve: running %q export self-test sample: %w", names[i], err)
			}
			e.Sample = samples[i]
			e.Expected = ctx.Params.CopyCiphertext(out)
		}
		reg.Entries = append(reg.Entries, e)
	}
	return reg, nil
}

// NewCatalog builds a catalog over an existing context. The context
// must hold every plan's rotations plus each mux geometry's pack/demux
// rotations (registry decode already proved coverage for contexts
// sealed from the same registry).
func NewCatalog(ctx *backend.Context, reg *wire.Registry, cfg Config) (*Catalog, error) {
	c := &Catalog{
		Ctx:     ctx,
		Sched:   New(ctx, cfg),
		entries: make(map[string]*CatalogEntry, len(reg.Entries)),
	}
	for i := range reg.Entries {
		re := &reg.Entries[i]
		e := &CatalogEntry{Name: re.Name, Plan: re.Plan, Sample: re.Sample, Expected: re.Expected}
		if re.MuxLanes >= 2 {
			m, err := plan.BuildMuxWith(ctx.Params, ctx.Encoder, re.Plan, re.MuxStride, re.MuxLanes)
			if err != nil {
				c.Sched.Close()
				return nil, fmt.Errorf("serve: kernel %q mux: %w", re.Name, err)
			}
			e.Mux = m
			c.Sched.EnableMux(m)
		}
		c.entries[e.Name] = e
		c.order = append(c.order, e.Name)
	}
	return c, nil
}

// LoadRegistry builds the serving half from a decoded registry: a
// sealed execute-only context (no secret key) and a catalog over it.
// The registry must already be validated (wire.DecodeRegistry always
// is).
func LoadRegistry(reg *wire.Registry, cfg Config) (*Catalog, error) {
	ctx, err := backend.NewSealedContext(reg.Params, reg.Relin, reg.Galois)
	if err != nil {
		return nil, err
	}
	return NewCatalog(ctx, reg, cfg)
}

// Kernels returns the hosted kernel names in manifest order.
func (c *Catalog) Kernels() []string { return c.order }

// Entry returns the named kernel, or nil.
func (c *Catalog) Entry(name string) *CatalogEntry { return c.entries[name] }

// Do submits one request against the named kernel and blocks for its
// result.
func (c *Catalog) Do(name string, ctIn []*bfv.Ciphertext, ptIn []quill.Vec) Result {
	e := c.entries[name]
	if e == nil {
		return Result{Err: fmt.Errorf("serve: unknown kernel %q", name)}
	}
	return c.Sched.Do(Request{Plan: e.Plan, Kernel: e.Name, CtIn: ctIn, PtIn: ptIn})
}

// SelfTest executes the named kernel's embedded sample and reports
// whether the output is bit-identical to the exporter's expectation —
// the cross-process differential check. Runs per-request on a private
// session (never lane-packed) so the comparison is exact.
func (c *Catalog) SelfTest(name string) (bool, error) {
	e := c.entries[name]
	if e == nil {
		return false, fmt.Errorf("serve: unknown kernel %q", name)
	}
	if e.Sample == nil {
		return false, fmt.Errorf("serve: kernel %q carries no self-test sample", name)
	}
	c.stMu.Lock()
	defer c.stMu.Unlock()
	if c.stSess == nil {
		c.stSess = c.Ctx.NewSession()
	}
	out, err := c.stSess.Run(e.Plan, e.Sample.CtIn, e.Sample.PtIn)
	if err != nil {
		return false, err
	}
	return c.Ctx.Params.CiphertextEqual(out, e.Expected), nil
}

// Close drains and shuts down the catalog's scheduler.
func (c *Catalog) Close() { c.Sched.Close() }
