package backend

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// MuxRunner executes slot-multiplexed batches of one plan: up to
// mux.Lanes independent requests packed into disjoint slot lanes of a
// single ciphertext evaluation, then demultiplexed back into one
// result per request.
//
//   - Ciphertext inputs are lane-packed homomorphically: packed =
//     ct_0 + Σ_j rot(ct_j, −j·Stride). Exact — no noise-free plaintext
//     access is needed — because every request's row is zero outside
//     [0, VecLen) (the EncryptVec packing contract), so the shifted
//     rows add into disjoint slots.
//   - Plaintext inputs are lane-packed at the encoder level (one row
//     holding every request's vector at its lane offset).
//   - The mux's lane-replicated plan clone then runs ONCE, and each
//     request's answer is extracted with rot(out, +j·Stride), landing
//     in slots [0, VecLen) where the client's decoder reads it.
//
// All scratch (packed inputs, rotation temp, per-lane outputs,
// plaintext backing rows) is owned by the runner and reused, so
// steady-state muxed execution performs zero allocations — the same
// serving invariant as Session.Run. Like Session.Run, the returned
// ciphertexts are valid until the next Run; callers keeping them must
// copy. A runner must not be used from more than one goroutine at a
// time; create one per worker.
type MuxRunner struct {
	ctx  *Context
	mux  *plan.Mux
	sess *Session

	packed []*bfv.Ciphertext // lane-packed ct inputs, one per plan ct input
	rotTmp *bfv.Ciphertext   // pack-rotation scratch
	outs   []*bfv.Ciphertext // demuxed per-lane outputs
	ptBufs [][]uint64        // lane-packed pt rows, one per plan pt input
	ptIn   []quill.Vec       // views over ptBufs handed to the session
}

// NewMuxRunner builds a runner for one plan's mux capability. The
// context must hold Galois keys for the mux's pack/demux rotations
// (±j·Stride) in addition to the plan's own.
func (c *Context) NewMuxRunner(m *plan.Mux) *MuxRunner {
	p := m.Plan
	r := &MuxRunner{ctx: c, mux: m, sess: c.NewSession()}
	r.packed = make([]*bfv.Ciphertext, p.NumCtInputs)
	for i := range r.packed {
		r.packed[i] = c.Params.NewCiphertextUninit(1)
	}
	r.rotTmp = c.Params.NewCiphertextUninit(1)
	r.outs = make([]*bfv.Ciphertext, m.Lanes)
	for j := range r.outs {
		r.outs[j] = c.Params.NewCiphertextUninit(1)
	}
	r.ptBufs = make([][]uint64, p.NumPtInputs)
	full := (m.Lanes-1)*m.Stride + p.VecLen
	for i := range r.ptBufs {
		r.ptBufs[i] = make([]uint64, full)
	}
	r.ptIn = make([]quill.Vec, p.NumPtInputs)
	return r
}

// Mux returns the lane geometry the runner executes.
func (r *MuxRunner) Mux() *plan.Mux { return r.mux }

// SetParallelism forwards the intra-plan parallelism budget to the
// runner's session.
func (r *MuxRunner) SetParallelism(w int) { r.sess.SetParallelism(w) }

// Run executes k = len(ctIns) requests (1 ≤ k ≤ Lanes) as one muxed
// evaluation. ctIns[j] and ptIns[j] are request j's inputs, shaped
// exactly like a Session.Run call for the base plan; ptIns may be nil
// when the plan takes no plaintext inputs. Returns one output
// ciphertext per request, each holding that request's answer in slots
// [0, VecLen); results live in runner scratch until the next Run.
func (r *MuxRunner) Run(ctIns [][]*bfv.Ciphertext, ptIns [][]quill.Vec) ([]*bfv.Ciphertext, error) {
	p := r.mux.Plan
	k := len(ctIns)
	if k < 1 || k > r.mux.Lanes {
		return nil, fmt.Errorf("backend: muxed batch of %d requests outside [1, %d]", k, r.mux.Lanes)
	}
	if ptIns != nil && len(ptIns) != k {
		return nil, fmt.Errorf("backend: %d pt input sets for %d muxed requests", len(ptIns), k)
	}
	// Validate every member up front: one malformed request must fail
	// the call before any ciphertext work, so the scheduler can fall
	// back to per-request execution with precise errors.
	for j := 0; j < k; j++ {
		if len(ctIns[j]) != p.NumCtInputs {
			return nil, fmt.Errorf("backend: muxed request %d has %d ct inputs, want %d", j, len(ctIns[j]), p.NumCtInputs)
		}
		for i, ct := range ctIns[j] {
			if ct == nil || ct.Degree() != 1 {
				return nil, fmt.Errorf("backend: muxed request %d ct input %d is not a degree-1 ciphertext", j, i)
			}
		}
		var pts []quill.Vec
		if ptIns != nil {
			pts = ptIns[j]
		}
		if len(pts) != p.NumPtInputs {
			return nil, fmt.Errorf("backend: muxed request %d has %d pt inputs, want %d", j, len(pts), p.NumPtInputs)
		}
		for i, v := range pts {
			if len(v) > p.VecLen {
				return nil, fmt.Errorf("backend: muxed request %d pt input %d holds %d values, plan vector is %d", j, i, len(v), p.VecLen)
			}
		}
	}

	ev := r.ctx.Eval
	for i := 0; i < p.NumCtInputs; i++ {
		// Lane 0 seeds the packed row (rotation by 0 is a copy into the
		// reused buffer), then every further lane shifts into place and
		// accumulates.
		if err := ev.RotateRowsInto(r.packed[i], ctIns[0][i], 0); err != nil {
			return nil, err
		}
		for j := 1; j < k; j++ {
			if err := ev.RotateRowsInto(r.rotTmp, ctIns[j][i], r.mux.PackRotation(j)); err != nil {
				return nil, err
			}
			ev.AddInto(r.packed[i], r.packed[i], r.rotTmp)
		}
	}
	for i := 0; i < p.NumPtInputs; i++ {
		buf := r.ptBufs[i][:(k-1)*r.mux.Stride+p.VecLen]
		clear(buf)
		for j := 0; j < k; j++ {
			copy(buf[j*r.mux.Stride:], ptIns[j][i])
		}
		r.ptIn[i] = buf
	}

	out, err := r.sess.Run(p, r.packed, r.ptIn)
	if err != nil {
		return nil, err
	}

	for j := 0; j < k; j++ {
		if err := ev.RotateRowsInto(r.outs[j], out, r.mux.DemuxRotation(j)); err != nil {
			return nil, err
		}
	}
	return r.outs[:k], nil
}

// ProveMux runs a lane-packed differential on a context that can
// decrypt (the exporter side): a full batch of Lanes distinct
// pseudorandom requests is executed as one muxed evaluation, and every
// lane's output must decrypt to exactly the slots the interpreter
// reference produces for that request alone. Static geometry legality
// (plan.ValidateMux) cannot see the preset's NOISE budget — each pack
// rotation's key-switch noise rides into the plan's multiplications,
// so a kernel that decrypts fine per-request can decrypt garbage
// lane-packed (the suite's polynomial-regression on PN4096 is the
// concrete case). Exporters call this before stamping a geometry into
// a manifest and demote failing kernels to per-request serving.
//
// The check draws full-range plaintext values (mod T), the worst case
// for plaintext-multiplication noise growth, and runs trials with
// independent encryption randomness so a marginal budget has more than
// one chance to trip.
//
// The independent work of a trial — one interpreter reference run and
// decryption per lane, the muxed run and the decryption of its lanes —
// spreads over runtime.GOMAXPROCS(0) worker goroutines. Plaintexts are
// drawn from the seed and encrypted on the calling goroutine in a
// fixed order (trial by trial, lane by lane, input by input), and a
// trial's encryptions start only after the previous trial passed, so
// a deterministic encryptor consumes the same randomness whatever the
// core count. The first failure in (trial, lane, slot) order is
// reported, so verdicts and error text do not depend on scheduling.
func (c *Context) ProveMux(m *plan.Mux, seed int64, trials int) error {
	if !c.CanDecrypt() {
		return fmt.Errorf("backend: mux proof needs a decrypting context")
	}
	if m.Plan.Source == nil {
		return fmt.Errorf("backend: mux proof needs the plan's source program")
	}
	if trials < 1 {
		trials = 1
	}
	rng := rand.New(rand.NewSource(seed))
	r := c.NewMuxRunner(m)
	rt := RuntimeOver(c)
	for trial := 0; trial < trials; trial++ {
		if err := c.proveTrial(m, r, rt, rng, trial); err != nil {
			return err
		}
	}
	return nil
}

// proveTrial runs one lane-packed differential of ProveMux. Lanes are
// handed to the reference workers as soon as their inputs are
// encrypted; once every lane is encrypted the calling goroutine runs
// the muxed evaluation and decrypts its lanes while the workers finish
// the references.
func (c *Context) proveTrial(m *plan.Mux, r *MuxRunner, rt *Runtime, rng *rand.Rand, trial int) error {
	p := m.Plan
	ctIns := make([][]*bfv.Ciphertext, m.Lanes)
	ptIns := make([][]quill.Vec, m.Lanes)
	wants := make([]quill.Vec, m.Lanes)
	refErrs := make([]error, m.Lanes)

	lanes := make(chan int, m.Lanes)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), m.Lanes); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range lanes {
				ref, err := rt.RunInterpreter(p.Source, ctIns[j], ptIns[j])
				if err != nil {
					refErrs[j] = err
					continue
				}
				wants[j] = c.DecryptVec(ref, p.VecLen)
			}
		}()
	}

	vec := func() quill.Vec {
		v := make(quill.Vec, p.VecLen)
		for s := range v {
			v[s] = rng.Uint64() % c.Params.T
		}
		return v
	}
	encLane, encErr := m.Lanes, error(nil)
encrypt:
	for j := 0; j < m.Lanes; j++ {
		for i := 0; i < p.NumCtInputs; i++ {
			ct, err := c.EncryptVec(vec())
			if err != nil {
				encLane, encErr = j, err
				break encrypt
			}
			ctIns[j] = append(ctIns[j], ct)
		}
		for i := 0; i < p.NumPtInputs; i++ {
			ptIns[j] = append(ptIns[j], vec())
		}
		lanes <- j
	}
	close(lanes)

	var gots []quill.Vec
	var runErr error
	if encErr == nil {
		var outs []*bfv.Ciphertext
		if outs, runErr = r.Run(ctIns, ptIns); runErr == nil {
			for _, out := range outs {
				gots = append(gots, c.DecryptVec(out, p.VecLen))
			}
		}
	}
	wg.Wait()

	// A lane's reference failure precedes any later lane's encryption,
	// and all of them precede the muxed run.
	for j := 0; j < encLane; j++ {
		if refErrs[j] != nil {
			return refErrs[j]
		}
	}
	if encErr != nil {
		return encErr
	}
	if runErr != nil {
		return runErr
	}
	for j, got := range gots {
		for s := range wants[j] {
			if got[s] != wants[j][s] {
				return fmt.Errorf("backend: muxed lane %d decrypts wrong at slot %d (trial %d): noise budget exceeded under %d-lane packing", j, s, trial, m.Lanes)
			}
		}
	}
	return nil
}
