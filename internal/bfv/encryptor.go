package bfv

import (
	"fmt"
	"math"
	"math/big"

	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor using secure randomness.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.ringQ)}
}

// NewTestEncryptor returns a deterministic encryptor for tests.
func NewTestEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewTestSampler(params.ringQ, seed)}
}

// deltaTimesPlaintext writes Δ·m (lifted to R_Q) into dst. The
// multiplicand Δ mod p_i is fixed per prime, so a Shoup constant
// (which accepts an arbitrary 64-bit cofactor) replaces the
// division-based MulMod.
func deltaTimesPlaintext(params *Parameters, dst *ring.Poly, pt *Plaintext) {
	r := params.ringQ
	for i, p := range r.Primes {
		d := params.deltaQi[i]
		dS := mathutil.ShoupPrecomp(d, p)
		di := dst.Coeffs[i]
		for j, m := range pt.Coeffs {
			di[j] = mathutil.ShoupMul(m, d, dS, p)
		}
	}
}

// Encrypt encrypts pt into a fresh degree-1 ciphertext:
// (c0, c1) = (p0·u + e0 + Δ·m, p1·u + e1).
func (enc *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	r := enc.params.ringQ
	u := r.GetPolyNoZero()
	defer r.PutPoly(u)
	if err := enc.sampler.Ternary(u); err != nil {
		return nil, err
	}
	e0 := r.GetPolyNoZero()
	defer r.PutPoly(e0)
	if err := enc.sampler.Error(e0); err != nil {
		return nil, err
	}
	e1 := r.GetPolyNoZero()
	defer r.PutPoly(e1)
	if err := enc.sampler.Error(e1); err != nil {
		return nil, err
	}
	r.NTT(u)
	c0 := r.GetPolyNoZero()
	c1 := r.GetPolyNoZero()
	r.MulCoeffs(c0, enc.pk.P0Ntt, u)
	r.MulCoeffs(c1, enc.pk.P1Ntt, u)
	r.INTT(c0)
	r.INTT(c1)
	r.Add(c0, c0, e0)
	r.Add(c1, c1, e1)
	dm := r.GetPolyNoZero()
	defer r.PutPoly(dm)
	deltaTimesPlaintext(enc.params, dm, pt)
	r.Add(c0, c0, dm)
	return &Ciphertext{Value: []*ring.Poly{c0, c1}}, nil
}

// Decryptor decrypts ciphertexts with the secret key and measures
// their remaining noise budget.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// phase computes c0 + c1·s + c2·s² + ... in the coefficient domain.
// The result comes from the ring's buffer pool; callers done with it
// return it with PutPoly.
func (dec *Decryptor) phase(ct *Ciphertext) *ring.Poly {
	r := dec.params.ringQ
	acc := r.GetPolyNoZero()
	r.CopyInto(acc, ct.Value[0])
	if len(ct.Value) == 1 {
		return acc
	}
	sPow := r.GetPolyNoZero()
	defer r.PutPoly(sPow)
	r.CopyInto(sPow, dec.sk.SNtt)
	tmp := r.GetPolyNoZero()
	defer r.PutPoly(tmp)
	for d := 1; d < len(ct.Value); d++ {
		r.CopyInto(tmp, ct.Value[d])
		r.NTT(tmp)
		r.MulCoeffs(tmp, tmp, sPow)
		r.INTT(tmp)
		r.Add(acc, acc, tmp)
		if d+1 < len(ct.Value) {
			r.MulCoeffs(sPow, sPow, dec.sk.SNtt)
		}
	}
	return acc
}

// Decrypt recovers the plaintext: m_j = round(t·v_j / Q) mod t where
// v = c0 + c1·s (+ higher powers for unrelinearized ciphertexts). The
// rounding runs in RNS (see tScaler) and equals the exact big-integer
// computation for every ciphertext, including noise-exhausted ones.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	v := dec.phase(ct)
	pt := dec.params.NewPlaintext()
	dec.params.tScale.scale(pt.Coeffs, v)
	dec.params.ringQ.PutPoly(v)
	return pt
}

// NoiseBudget returns the invariant noise budget of ct in bits:
// log2(Q / (2·max_j |t·v_j mod Q|_centered)). Decryption is correct
// while the budget is positive. Returns 0 when the budget is
// exhausted.
func (dec *Decryptor) NoiseBudget(ct *Ciphertext) float64 {
	r := dec.params.ringQ
	v := dec.phase(ct)
	defer r.PutPoly(v)
	t := new(big.Int).SetUint64(dec.params.T)
	q := dec.params.q
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num, rem big.Int
	maxNorm := new(big.Int)
	for j := 0; j < dec.params.N; j++ {
		r.CoeffBigCentered(&x, v, j)
		num.Mul(t, &x)
		// Centered remainder of t·x modulo Q.
		rem.Mod(&num, q)
		if rem.Cmp(halfQ) > 0 {
			rem.Sub(&rem, q)
		}
		rem.Abs(&rem)
		if rem.Cmp(maxNorm) > 0 {
			maxNorm.Set(&rem)
		}
	}
	if maxNorm.Sign() == 0 {
		maxNorm.SetInt64(1)
	}
	budget := bigLog2(q) - bigLog2(maxNorm) - 1
	if budget < 0 {
		return 0
	}
	return budget
}

// bigLog2 returns log2(x) for positive x.
func bigLog2(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}

// tScaler computes round(t·x/Q) mod t for every coefficient x ∈ [0, Q)
// of a polynomial in RNS form, with word-sized arithmetic only:
//
//	y = t·x + ⌊Q/2⌋,  r = y mod Q,  round(t·x/Q) = (y − r)/Q,
//
// so the result is (y − r)·Q⁻¹ mod t = (⌊Q/2⌋ − r)·Q⁻¹ mod t. The
// residues of r are those of y; Garner's mixed-radix digits of r give
// r mod t exactly. Ties never occur: t·x/Q = n + ½ would need
// Q | 2t·x, impossible for 0 < x < Q since Q, a product of odd NTT
// primes, is coprime to 2t. So adding ⌊Q/2⌋ rounds exactly like the
// centered big-integer reference, and reducing mod t removes the
// choice of representative.
type tScaler struct {
	t      uint64
	dec    *mathutil.MRDecomposer // Garner tables over the Q basis
	tq     []uint64               // t mod q_i
	tqS    []uint64               // Shoup companions of tq
	halfQ  []uint64               // ⌊Q/2⌋ mod q_i
	wt     []uint64               // W_i mod t (W_i = q_0···q_{i-1})
	wtS    []uint64               // Shoup companions of wt
	halfQt uint64                 // ⌊Q/2⌋ mod t
	qInv   uint64                 // Q⁻¹ mod t
	qInvS  uint64
}

func newTScaler(primes []uint64, q *big.Int, t uint64) (*tScaler, error) {
	dec, err := mathutil.NewMRDecomposer(primes)
	if err != nil {
		return nil, err
	}
	k := len(primes)
	sc := &tScaler{
		t: t, dec: dec,
		tq: make([]uint64, k), tqS: make([]uint64, k), halfQ: make([]uint64, k),
		wt: make([]uint64, k), wtS: make([]uint64, k),
	}
	halfQ := new(big.Int).Rsh(q, 1)
	var tmp, pb big.Int
	w := uint64(1) % t
	for i, p := range primes {
		sc.tq[i] = t % p
		sc.tqS[i] = mathutil.ShoupPrecomp(sc.tq[i], p)
		pb.SetUint64(p)
		sc.halfQ[i] = tmp.Mod(halfQ, &pb).Uint64()
		sc.wt[i] = w
		sc.wtS[i] = mathutil.ShoupPrecomp(w, t)
		w = mathutil.MulMod(w, p%t, t)
	}
	pb.SetUint64(t)
	sc.halfQt = tmp.Mod(halfQ, &pb).Uint64()
	if sc.qInv, err = mathutil.InvMod(w, t); err != nil {
		return nil, fmt.Errorf("bfv: ciphertext modulus not coprime to t: %w", err)
	}
	sc.qInvS = mathutil.ShoupPrecomp(sc.qInv, t)
	return sc, nil
}

// scale writes round(t·x_j/Q) mod t into dst[j] for each coefficient
// x_j of v.
func (sc *tScaler) scale(dst []uint64, v *ring.Poly) {
	k, t := len(sc.tq), sc.t
	digits := make([]uint64, k)
	for j := range dst {
		for i, p := range sc.dec.Primes {
			digits[i] = mathutil.AddMod(mathutil.ShoupMul(v.Coeffs[i][j], sc.tq[i], sc.tqS[i], p), sc.halfQ[i], p)
		}
		sc.dec.Decompose(digits, digits)
		var rt uint64
		for i, d := range digits {
			rt = mathutil.AddMod(rt, mathutil.ShoupMul(d, sc.wt[i], sc.wtS[i], t), t)
		}
		dst[j] = mathutil.ShoupMul(mathutil.SubMod(sc.halfQt, rt, t), sc.qInv, sc.qInvS, t)
	}
}
