package backend

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// seedEncryptor replaces ctx's encryptor (secure randomness) with a
// seeded one under the same public key: the test key generator seeded
// with keySeed regenerates the context's secret and public keys.
func seedEncryptor(t *testing.T, ctx *Context, keySeed, encSeed int64) {
	t.Helper()
	kg := bfv.NewTestKeyGenerator(ctx.Params, keySeed)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Enc = bfv.NewTestEncryptor(ctx.Params, pk, encSeed)
}

// proveVerdicts runs TestProveMux's shallow and depth-3 proofs on a
// fresh fully seeded context at the given GOMAXPROCS and returns each
// proof's error text ("" when it passed) plus a digest of the next
// ciphertext the context's encryptor produces afterwards — which pins
// how much encryption randomness the proofs consumed.
func proveVerdicts(t *testing.T, procs int) (shallow, deep, next string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx, plans, err := NewTestMuxServingContext("PN2048", 23, 0, muxProgram(), deepSquaringProgram())
	if err != nil {
		t.Fatal(err)
	}
	seedEncryptor(t, ctx, 23, 5)
	verdict := func(p *plan.ExecutionPlan) string {
		m, err := plan.BuildMux(ctx.Params, ctx.Encoder, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.ProveMux(m, 7, 2); err != nil {
			return err.Error()
		}
		return ""
	}
	shallow, deep = verdict(plans[0]), verdict(plans[1])
	ct, err := ctx.EncryptVec(quill.Vec{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return shallow, deep, hex.EncodeToString(sum[:])
}

// TestProveMuxSchedulingIndependent: the parallel proof's verdicts,
// error text and encryption-randomness consumption are the same on
// one core and on four, and equal to the serial proof it replaced
// (pinned values).
func TestProveMuxSchedulingIndependent(t *testing.T) {
	const (
		wantDeep = "backend: muxed lane 0 decrypts wrong at slot 0 (trial 0): noise budget exceeded under 8-lane packing"
		wantNext = "59edc269b680f29e2f16b87672f44f79f18db266a88b21b5368e8fdcb2fdb95a"
	)
	for _, procs := range []int{1, 4} {
		shallow, deep, next := proveVerdicts(t, procs)
		if shallow != "" {
			t.Errorf("GOMAXPROCS=%d: shallow kernel failed the mux proof: %s", procs, shallow)
		}
		if deep != wantDeep {
			t.Errorf("GOMAXPROCS=%d: depth-3 verdict %q, want %q", procs, deep, wantDeep)
		}
		if next != wantNext {
			t.Errorf("GOMAXPROCS=%d: encryptor stream after the proofs has digest %s, want %s", procs, next, wantNext)
		}
	}
}
