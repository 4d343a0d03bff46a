package bfv

import (
	"math/big"
	"math/rand"
	"testing"

	"porcupine/internal/ring"
)

// decryptBig is the big-integer decryption the RNS path replaced:
// centered CRT reconstruction of every phase coefficient x, then
// (t·x ± ⌊Q/2⌋) quo Q mod t. It is the reference Decrypt must match
// on every input.
func decryptBig(dec *Decryptor, ct *Ciphertext) *Plaintext {
	r := dec.params.ringQ
	v := dec.phase(ct)
	defer r.PutPoly(v)
	pt := dec.params.NewPlaintext()
	t := new(big.Int).SetUint64(dec.params.T)
	q := dec.params.q
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num big.Int
	for j := 0; j < dec.params.N; j++ {
		r.CoeffBigCentered(&x, v, j)
		num.Mul(t, &x)
		if num.Sign() >= 0 {
			num.Add(&num, halfQ)
		} else {
			num.Sub(&num, halfQ)
		}
		num.Quo(&num, q)
		num.Mod(&num, t)
		pt.Coeffs[j] = num.Uint64()
	}
	return pt
}

func plaintextsEqual(a, b *Plaintext) int {
	for j := range a.Coeffs {
		if a.Coeffs[j] != b.Coeffs[j] {
			return j
		}
	}
	return -1
}

// TestDecryptMatchesBigInt compares RNS decryption with the big-integer
// reference on every supported preset: fresh ciphertexts, a chain of
// relinearized products run well past the noise budget, unrelinearized
// degree-2 products, and uniformly random (noise-exhausted) ciphertexts
// including coefficients at the Q/2 boundary.
func TestDecryptMatchesBigInt(t *testing.T) {
	presets := []string{"PN2048", "PN4096", "PN8192"}
	if testing.Short() {
		presets = presets[:2]
	}
	for _, preset := range presets {
		t.Run(preset, func(t *testing.T) {
			params, err := NewParametersFromPreset(preset)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := NewEncoder(params)
			if err != nil {
				t.Fatal(err)
			}
			kg := NewTestKeyGenerator(params, 3)
			sk, err := kg.GenSecretKey()
			if err != nil {
				t.Fatal(err)
			}
			pk, err := kg.GenPublicKey(sk)
			if err != nil {
				t.Fatal(err)
			}
			rlk, err := kg.GenRelinearizationKey(sk)
			if err != nil {
				t.Fatal(err)
			}
			encr := NewTestEncryptor(params, pk, 4)
			dec := NewDecryptor(params, sk)
			ev := NewEvaluator(params, rlk, nil)
			rng := rand.New(rand.NewSource(5))
			check := func(what string, ct *Ciphertext) {
				t.Helper()
				if j := plaintextsEqual(dec.Decrypt(ct), decryptBig(dec, ct)); j >= 0 {
					t.Fatalf("%s: RNS decryption differs from big.Int at coefficient %d", what, j)
				}
			}

			var fresh []*Ciphertext
			for i := 0; i < 3; i++ {
				pt, err := enc.EncodeNew(randVec(rng, enc.SlotCount(), params.T))
				if err != nil {
					t.Fatal(err)
				}
				ct, err := encr.Encrypt(pt)
				if err != nil {
					t.Fatal(err)
				}
				check("fresh", ct)
				fresh = append(fresh, ct)
			}

			deg2, err := ev.Mul(fresh[0], fresh[1])
			if err != nil {
				t.Fatal(err)
			}
			check("degree-2 product", deg2)

			// Square repeatedly until the budget is long gone and a few
			// products beyond, so the chain covers correct, marginal and
			// exhausted ciphertexts.
			acc, exhausted := fresh[2], 0
			for depth := 1; depth <= 12 && exhausted < 2; depth++ {
				if acc, err = ev.MulRelin(acc, acc); err != nil {
					t.Fatal(err)
				}
				check("deep product", acc)
				if dec.NoiseBudget(acc) < 1 {
					exhausted++
				}
			}
			if exhausted == 0 {
				t.Fatal("product chain never exhausted the noise budget")
			}

			r := params.RingQ()
			s := ring.NewTestSampler(r, 6)
			for i := 0; i < 4; i++ {
				ct := params.NewCiphertext(1 + i%2)
				for _, p := range ct.Value {
					if err := s.Uniform(p); err != nil {
						t.Fatal(err)
					}
				}
				check("uniform", ct)
			}

			// Degree-0 ciphertexts decrypt their c0 directly: place the
			// boundary values 0, 1, ⌊Q/2⌋, ⌈Q/2⌉, Q−1 and the rounding
			// edges around multiples of Q/t into its coefficients.
			q := params.Q()
			half := new(big.Int).Rsh(q, 1)
			qt := new(big.Int).Quo(q, new(big.Int).SetUint64(params.T))
			vals := []*big.Int{big.NewInt(0), big.NewInt(1), half, new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(1))}
			for m := int64(1); m < 4; m++ {
				c := new(big.Int).Mul(qt, big.NewInt(m))
				c.Add(c, new(big.Int).Rsh(qt, 1))
				for d := int64(-1); d <= 1; d++ {
					vals = append(vals, new(big.Int).Add(c, big.NewInt(d)))
				}
			}
			ct := params.NewCiphertext(0)
			for j, x := range vals {
				r.SetCoeffBig(ct.Value[0], j, x)
			}
			check("boundary coefficients", ct)
		})
	}
}
