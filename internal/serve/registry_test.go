package serve

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/wire"
)

// registryPrograms builds a mixed kernel suite: two mux-eligible
// small-vector kernels (a stencil and a dot-style reduction), one
// full-width kernel, and one whose rotation reach wraps across any
// affordable lane boundary — the two refusal classes a registry must
// serve per-request.
func registryPrograms() (names []string, programs []*quill.Lowered) {
	stencil := &quill.Lowered{
		VecLen: 32, NumCtInputs: 1, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: -2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpMulCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpAddCtPt, Dst: 5, A: 4, P: quill.PtRef{Input: 0}},
		},
		Output: 5,
	}
	dot := &quill.Lowered{
		VecLen: 8, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpMulCtCt, Dst: 2, A: 0, B: 1},
			{Op: quill.OpRelin, Dst: 3, A: 2},
			{Op: quill.OpRotCt, Dst: 4, A: 3, Rot: 4},
			{Op: quill.OpAddCtCt, Dst: 5, A: 3, B: 4},
			{Op: quill.OpRotCt, Dst: 6, A: 5, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 7, A: 5, B: 6},
			{Op: quill.OpRotCt, Dst: 8, A: 7, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 9, A: 7, B: 8},
		},
		Output: 9,
	}
	fullWidth := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
		},
		Output: 3,
	}
	wraparound := &quill.Lowered{
		VecLen: 512, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 250},
			{Op: quill.OpAddCtCt, Dst: 2, A: 1, B: 0},
		},
		Output: 2,
	}
	return []string{"stencil", "dot", "full-width", "wraparound"},
		[]*quill.Lowered{stencil, dot, fullWidth, wraparound}
}

type regFixture struct {
	ctx      *backend.Context
	reg      *wire.Registry
	names    []string
	programs []*quill.Lowered
	rng      *rand.Rand
}

func newRegFixture(t *testing.T) *regFixture {
	t.Helper()
	names, programs := registryPrograms()
	ctx, plans, err := backend.NewTestMuxServingContext("PN2048", 17, 0, programs...)
	if err != nil {
		t.Fatal(err)
	}
	f := &regFixture{ctx: ctx, names: names, programs: programs, rng: rand.New(rand.NewSource(3))}
	samples := make([]*wire.Request, len(plans))
	for i, p := range plans {
		ctIn, ptIn := f.inputs(t, i)
		samples[i] = &wire.Request{CtIn: ctIn, PtIn: ptIn}
		_ = p
	}
	reg, err := ExportRegistry(ctx, names, plans, samples)
	if err != nil {
		t.Fatal(err)
	}
	f.reg = reg
	return f
}

// inputs draws fresh random inputs shaped for kernel i.
func (f *regFixture) inputs(t *testing.T, i int) ([]*bfv.Ciphertext, []quill.Vec) {
	t.Helper()
	l := f.programs[i]
	vec := func() quill.Vec {
		v := make(quill.Vec, l.VecLen)
		for j := range v {
			v[j] = f.rng.Uint64() % 64
		}
		return v
	}
	var cts []*bfv.Ciphertext
	for k := 0; k < l.NumCtInputs; k++ {
		ct, err := f.ctx.EncryptVec(vec())
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	var pts []quill.Vec
	for k := 0; k < l.NumPtInputs; k++ {
		pts = append(pts, vec())
	}
	return cts, pts
}

// TestRegistryRoundTripServing is the in-package version of the CI
// cross-process smoke: export a mixed-kernel registry, decode it from
// bytes, load it into a sealed (execute-only) catalog, and require
// every kernel's embedded sample to reproduce the exporter's output
// bit for bit. Mux geometry must survive the round trip: present on
// the eligible kernels, absent on the full-width and wraparound ones.
func TestRegistryRoundTripServing(t *testing.T) {
	f := newRegFixture(t)
	data, err := f.reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.DecodeRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := LoadRegistry(reg, Config{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Ctx.CanDecrypt() {
		t.Fatal("loaded catalog can decrypt: secret material crossed the wire")
	}
	if got := cat.Kernels(); len(got) != len(f.names) {
		t.Fatalf("catalog hosts %v, want %v", got, f.names)
	}
	wantMux := map[string]bool{"stencil": true, "dot": true, "full-width": false, "wraparound": false}
	for _, name := range f.names {
		e := cat.Entry(name)
		if e == nil {
			t.Fatalf("kernel %q missing from catalog", name)
		}
		if (e.Mux != nil) != wantMux[name] {
			t.Errorf("kernel %q mux = %v, want %v", name, e.Mux != nil, wantMux[name])
		}
		ok, err := cat.SelfTest(name)
		if err != nil {
			t.Fatalf("kernel %q self-test: %v", name, err)
		}
		if !ok {
			t.Errorf("kernel %q output not bit-identical to the exporter's", name)
		}
	}
}

// TestMuxedServingDifferential is the end-to-end mux correctness
// check through the scheduler: N users' requests across mixed kernels,
// submitted concurrently into one session so same-kernel bursts
// coalesce and lane-pack, must each decrypt to exactly what that
// user's individual run produces — and at least one response must
// actually have been lane-packed (Lanes ≥ 2), or the test would pass
// vacuously.
func TestMuxedServingDifferential(t *testing.T) {
	f := newRegFixture(t)
	cat, err := NewCatalog(f.ctx, f.reg, Config{Sessions: 1, QueueDepth: 64, MaxBatch: 8, BatchWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	type userReq struct {
		kernel string
		prog   *quill.Lowered
		ctIn   []*bfv.Ciphertext
		ptIn   []quill.Vec
		want   quill.Vec
	}
	// 8 stencil users + 8 dot users (mux-eligible bursts), interleaved
	// with full-width users (never packed).
	var users []*userReq
	for i, name := range f.names {
		n := 8
		if name == "full-width" || name == "wraparound" {
			n = 3
		}
		for u := 0; u < n; u++ {
			ctIn, ptIn := f.inputs(t, i)
			ref, err := backend.RuntimeOver(f.ctx).RunInterpreter(f.programs[i], ctIn, ptIn)
			if err != nil {
				t.Fatal(err)
			}
			users = append(users, &userReq{
				kernel: name, prog: f.programs[i], ctIn: ctIn, ptIn: ptIn,
				want: f.ctx.DecryptVec(ref, f.programs[i].VecLen),
			})
		}
	}

	results := make([]Result, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = cat.Do(u.kernel, u.ctIn, u.ptIn)
		}()
	}
	wg.Wait()

	sawMux := false
	for i, u := range users {
		res := results[i]
		if res.Err != nil {
			t.Fatalf("user %d (%s): %v", i, u.kernel, res.Err)
		}
		if res.Lanes >= 2 {
			sawMux = true
			if u.kernel == "full-width" || u.kernel == "wraparound" {
				t.Fatalf("mux-ineligible kernel %q was lane-packed", u.kernel)
			}
		}
		got := f.ctx.DecryptVec(res.Out, u.prog.VecLen)
		for s := range u.want {
			if got[s] != u.want[s] {
				t.Fatalf("user %d (%s, lanes %d) slot %d: served %d, individual %d",
					i, u.kernel, res.Lanes, s, got[s], u.want[s])
			}
		}
	}
	if !sawMux {
		t.Fatal("no response was lane-packed: concurrent same-kernel bursts never muxed")
	}

	st := cat.Sched.Stats()
	if st.MuxGroups == 0 || st.MuxedRequests < 2 {
		t.Errorf("stats: mux groups %d, muxed requests %d", st.MuxGroups, st.MuxedRequests)
	}
	for _, name := range f.names {
		ks, ok := st.Kernels[name]
		if !ok || ks.Served == 0 {
			t.Errorf("stats: kernel %q served %d", name, ks.Served)
		}
		if (name == "full-width" || name == "wraparound") && ks.Muxed != 0 {
			t.Errorf("stats: ineligible kernel %q reports %d muxed", name, ks.Muxed)
		}
	}
}

// TestRegistryConcurrentKernels hammers one catalog from many
// producers across every kernel at once — the multi-kernel analogue of
// TestConcurrentProducers, run under -race in CI. Every response must
// decrypt to its user's individual reference regardless of how the
// scheduler grouped, batched, or lane-packed it.
func TestRegistryConcurrentKernels(t *testing.T) {
	f := newRegFixture(t)
	cat, err := NewCatalog(f.ctx, f.reg, Config{Sessions: 2, QueueDepth: 16, MaxBatch: 8, BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	type job struct {
		kernel string
		vecLen int
		ctIn   []*bfv.Ciphertext
		ptIn   []quill.Vec
		want   quill.Vec
	}
	const perKernel = 6
	var jobs []*job
	for i, name := range f.names {
		for u := 0; u < perKernel; u++ {
			ctIn, ptIn := f.inputs(t, i)
			ref, err := backend.RuntimeOver(f.ctx).RunInterpreter(f.programs[i], ctIn, ptIn)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, &job{
				kernel: name, vecLen: f.programs[i].VecLen, ctIn: ctIn, ptIn: ptIn,
				want: f.ctx.DecryptVec(ref, f.programs[i].VecLen),
			})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := cat.Do(j.kernel, j.ctIn, j.ptIn)
			if res.Err != nil {
				errs <- res.Err
				return
			}
			got := f.ctx.DecryptVec(res.Out, j.vecLen)
			for s := range j.want {
				if got[s] != j.want[s] {
					errs <- errors.New(j.kernel + ": served output differs from individual run")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cat.Sched.Stats()
	if want := uint64(len(jobs)); st.Served != want || st.Failed != 0 {
		t.Errorf("stats: served %d failed %d, want %d/0", st.Served, st.Failed, want)
	}
	// Unknown kernels are refused without touching the scheduler.
	if res := cat.Do("no-such-kernel", nil, nil); res.Err == nil {
		t.Error("unknown kernel accepted")
	}
}

// deepSquaringKernel is a depth-3 repeated-squaring chain: statically
// lane-packable, but its muxed evaluation blows PN2048's noise budget.
func deepSquaringKernel() *quill.Lowered {
	deep := &quill.Lowered{VecLen: 32, NumCtInputs: 1}
	acc, next := 0, 1
	for d := 0; d < 3; d++ {
		deep.Instrs = append(deep.Instrs,
			quill.LInstr{Op: quill.OpMulCtCt, Dst: next, A: acc, B: acc},
			quill.LInstr{Op: quill.OpRelin, Dst: next + 1, A: next})
		acc = next + 1
		next += 2
	}
	deep.Instrs = append(deep.Instrs,
		quill.LInstr{Op: quill.OpRotCt, Dst: next, A: acc, Rot: 1},
		quill.LInstr{Op: quill.OpAddCtCt, Dst: next + 1, A: next, B: acc})
	deep.Output = next + 1
	return deep
}

// TestRegistryExportDemotesNoisyMux: a depth-3 repeated-squaring
// kernel is statically lane-packable, but its muxed evaluation blows
// the toy preset's noise budget — ExportRegistry must run the
// decrypted proof and demote it to per-request instead of stamping a
// wrong-answer geometry into the manifest.
func TestRegistryExportDemotesNoisyMux(t *testing.T) {
	names, programs := registryPrograms()
	names = append(names, "deep")
	programs = append(programs, deepSquaringKernel())
	ctx, plans, err := backend.NewTestMuxServingContext("PN2048", 17, 0, programs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, lanes, _ := plan.MuxParams(plans[len(plans)-1], ctx.Params.SlotCount(), 0); lanes < 2 {
		t.Fatal("deep kernel not statically eligible: the demotion test is vacuous")
	}
	reg, err := ExportRegistry(ctx, names, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := reg.Entry("deep"); e == nil || e.MuxLanes != 0 || e.MuxStride != 0 {
		t.Fatalf("noisy kernel kept mux geometry (%d lanes x %d stride)", e.MuxLanes, e.MuxStride)
	}
	// The proof must not over-demote: the shallow kernels keep theirs.
	for _, name := range []string{"stencil", "dot"} {
		if e := reg.Entry(name); e == nil || e.MuxLanes < 2 {
			t.Errorf("kernel %q lost its mux geometry to the noise proof", name)
		}
	}
}
