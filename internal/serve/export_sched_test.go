package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/quill"
	"porcupine/internal/wire"
)

// exportDigest exports the mixed suite plus the noisy depth-3 kernel
// from a fully seeded context (seeded keys and a seeded encryptor) at
// the given GOMAXPROCS, with embedded samples, and returns a digest of
// Registry.Encode() followed by the next ciphertext the encryptor
// produces — so it pins the stamped geometries, the samples and the
// encryption randomness the mux proofs consumed.
func exportDigest(t *testing.T, procs int) (string, *wire.Registry) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	names, programs := registryPrograms()
	names = append(names, "deep")
	programs = append(programs, deepSquaringKernel())
	ctx, plans, err := backend.NewTestMuxServingContext("PN2048", 17, 0, programs...)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewTestKeyGenerator(ctx.Params, 17)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Enc = bfv.NewTestEncryptor(ctx.Params, pk, 29)

	rng := rand.New(rand.NewSource(3))
	samples := make([]*wire.Request, len(programs))
	for i, l := range programs {
		req := &wire.Request{}
		for k := 0; k < l.NumCtInputs+l.NumPtInputs; k++ {
			v := make(quill.Vec, l.VecLen)
			for j := range v {
				v[j] = rng.Uint64() % 64
			}
			if k >= l.NumCtInputs {
				req.PtIn = append(req.PtIn, v)
				continue
			}
			ct, err := ctx.EncryptVec(v)
			if err != nil {
				t.Fatal(err)
			}
			req.CtIn = append(req.CtIn, ct)
		}
		samples[i] = req
	}
	reg, err := ExportRegistry(ctx, names, plans, samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b)
	ct, err := ctx.EncryptVec(quill.Vec{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(cb)
	return hex.EncodeToString(h.Sum(nil)), reg
}

// TestExportRegistrySchedulingIndependent: the registry an exporter
// writes — geometries stamped or demoted by the parallel mux proofs,
// samples, expected outputs — is byte-identical on one core and on
// four, and equal to what the serial proof produced (pinned digest).
func TestExportRegistrySchedulingIndependent(t *testing.T) {
	const want = "8be10cc2ed1e3d2c98cff49a908a7feca7a6fac9a6a61cee6dc78be580b69613"
	for _, procs := range []int{1, 4} {
		got, reg := exportDigest(t, procs)
		if got != want {
			t.Errorf("GOMAXPROCS=%d: registry digest %s, want %s", procs, got, want)
		}
		if e := reg.Entry("deep"); e == nil || e.MuxLanes != 0 {
			t.Errorf("GOMAXPROCS=%d: noisy kernel kept its mux geometry", procs)
		}
		for _, name := range []string{"stencil", "dot"} {
			if e := reg.Entry(name); e == nil || e.MuxLanes < 2 {
				t.Errorf("GOMAXPROCS=%d: kernel %q lost its mux geometry", procs, name)
			}
		}
	}
}
