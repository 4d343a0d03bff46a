package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/mathutil"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/ring"
)

// opTimes are isolated operation times at one parameter set.
type opTimes struct {
	MulRelinMS, RotateMS, MulPlainMS, AddMS        float64
	NTTUS, INTTUS, LiftUS, ScaleDownUS, MulAccumUS float64
}

// repeatMedian calls f reps times and returns the median duration.
func repeatMedian(reps int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// measureOps times the bfv and ring entry points the plan steps reduce
// to, in isolation, on ctx (which must hold the secret key to encrypt
// and a Galois key for rotation rot; rot 0 skips the rotation).
func measureOps(ctx *backend.Context, rot int) (opTimes, error) {
	var t opTimes
	params := ctx.Params
	rng := rand.New(rand.NewSource(7))
	vec := make(quill.Vec, params.SlotCount())
	for i := range vec {
		vec[i] = rng.Uint64() % params.T
	}
	a, err := ctx.EncryptVec(vec)
	if err != nil {
		return t, err
	}
	b, err := ctx.EncryptVec(vec)
	if err != nil {
		return t, err
	}
	pt, err := ctx.Encoder.EncodeNew(vec)
	if err != nil {
		return t, err
	}
	ev := ctx.Eval
	dst := params.NewCiphertext(1)
	const reps = 15
	var opErr error
	t.MulRelinMS = ms(repeatMedian(reps, func() {
		if err := ev.MulRelinInto(dst, a, b); err != nil {
			opErr = err
		}
	}))
	if rot != 0 {
		t.RotateMS = ms(repeatMedian(reps, func() {
			if err := ev.RotateRowsInto(dst, a, rot); err != nil {
				opErr = err
			}
		}))
	}
	t.MulPlainMS = ms(repeatMedian(reps, func() { ev.MulPlainInto(dst, a, pt) }))
	t.AddMS = ms(repeatMedian(reps, func() { ev.AddInto(dst, a, b) }))
	if opErr != nil {
		return t, opErr
	}

	rq := params.RingQ()
	p := randomPoly(rq, rng)
	const ringReps = 50
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.NTTUS = us(repeatMedian(ringReps, func() { rq.NTT(p) }))
	t.INTTUS = us(repeatMedian(ringReps, func() { rq.INTT(p) }))
	digits := make([]*ring.Poly, len(rq.Primes))
	keys := make([]*ring.Poly, len(rq.Primes))
	for i := range digits {
		digits[i], keys[i] = randomPoly(rq, rng), randomPoly(rq, rng)
	}
	acc := rq.NewPoly()
	t.MulAccumUS = us(repeatMedian(ringReps, func() { rq.MulAccumLazy(acc, digits, keys) }))

	ext, err := extensionRing(params)
	if err != nil {
		return t, err
	}
	be, err := ring.NewBasisExtender(rq, ext, params.T)
	if err != nil {
		return t, err
	}
	wide := ext.NewPoly()
	t.LiftUS = us(repeatMedian(ringReps, func() { be.LiftCentered(wide, p) }))
	wide = randomPoly(ext, rng)
	t.ScaleDownUS = us(repeatMedian(ringReps, func() { be.ScaleDown(p, wide) }))
	return t, nil
}

func randomPoly(r *ring.Ring, rng *rand.Rand) *ring.Poly {
	p := r.NewPoly()
	for i, row := range p.Coeffs {
		for j := range row {
			row[j] = rng.Uint64() % r.Primes[i]
		}
	}
	return p
}

// extensionRing rebuilds the extended basis bfv uses for exact tensor
// products (Q's primes plus the widest auxiliary NTT primes, from
// mathutil.MaxModulusBits down, whose product clears 2·N·Q² and whose
// lazy Shoup sums fit a word), so that lift and scale-down are timed at
// the shape the evaluator runs them.
func extensionRing(params *bfv.Parameters) (*ring.Ring, error) {
	n, q := params.N, params.QPrimes
	bound := new(big.Int).Mul(params.Q(), params.Q())
	bound.Mul(bound, big.NewInt(int64(2*n)))
	inQ := map[uint64]bool{}
	maxQ := uint64(0)
	for _, p := range q {
		inQ[p] = true
		maxQ = max(maxQ, p)
	}
	var fallback []uint64
	for bits := mathutil.MaxModulusBits; bits >= 45; bits-- {
		cand, err := mathutil.GenerateNTTPrimes(bits, n, len(q)+8)
		if err != nil {
			continue
		}
		ext := append([]uint64(nil), q...)
		prod := new(big.Int).Set(params.Q())
		maxP := maxQ
		for _, a := range cand {
			if prod.Cmp(bound) > 0 {
				break
			}
			if !inQ[a] {
				ext = append(ext, a)
				prod.Mul(prod, new(big.Int).SetUint64(a))
				maxP = max(maxP, a)
			}
		}
		if prod.Cmp(bound) <= 0 {
			continue
		}
		if fallback == nil {
			fallback = ext
		}
		if k := uint64(len(ext)); k >= 2 && maxP <= ^uint64(0)/(2*(k-1)) {
			return ring.NewRing(n, ext)
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("no extended basis for N=%d", n)
	}
	return ring.NewRing(n, fallback)
}

// predictMS is a kernel's run time predicted from its static operation
// counts and isolated operation times: multiplications (with their
// relinearization), rotations, plaintext multiplications and
// additions. Relinearizations are folded into MulRelin.
func predictMS(l *quill.Lowered, t opTimes) float64 {
	sum := 0.0
	for _, in := range l.Instrs {
		switch in.Op {
		case quill.OpMulCtCt:
			sum += t.MulRelinMS
		case quill.OpRotCt:
			sum += t.RotateMS
		case quill.OpMulCtPt:
			sum += t.MulPlainMS
		case quill.OpAddCtCt, quill.OpSubCtCt, quill.OpAddCtPt, quill.OpSubCtPt:
			sum += t.AddMS
		}
	}
	return sum
}

// timeRuns returns the median of isolated Session.Run calls of p.
func timeRuns(sess *backend.Session, p *plan.ExecutionPlan, in input, reps int) (float64, error) {
	var err error
	d := repeatMedian(reps, func() {
		if _, e := sess.Run(p, in.req.CtIn, in.req.PtIn); e != nil {
			err = e
		}
	})
	return ms(d), err
}

// firstRotation returns a rotation amount the plans' context holds a
// Galois key for, 0 when the plans rotate nothing.
func firstRotation(plans []*plan.ExecutionPlan) int {
	if rots := plan.RotationSet(plans...); len(rots) > 0 {
		return rots[0]
	}
	return 0
}

// recordOps stores isolated op times as per-layer metrics.
func recordOps(layers map[string]float64, t opTimes) {
	layers["bfv.mulrelin_ms"] = t.MulRelinMS
	layers["bfv.rotate_ms"] = t.RotateMS
	layers["bfv.mulplain_ms"] = t.MulPlainMS
	layers["ring.ntt_us"] = t.NTTUS
	layers["ring.intt_us"] = t.INTTUS
	layers["ring.lift_us"] = t.LiftUS
	layers["ring.scaledown_us"] = t.ScaleDownUS
	layers["ring.mulaccum_us"] = t.MulAccumUS
}

// recordStatic stores a plan's exact static counts.
func recordStatic(layers map[string]float64, name string, p *plan.ExecutionPlan) {
	layers["quill.instrs."+name] = float64(p.Source.InstructionCount())
	layers["plan.steps."+name] = float64(p.InstructionCount())
	layers["plan.decomps_total"] += float64(p.DigitDecompositions())
	layers["plan.transforms_total"] += float64(p.ExternalTransforms())
}
