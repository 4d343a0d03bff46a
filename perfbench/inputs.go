package main

import (
	"fmt"
	"math/rand"
	"sync"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/wire"
)

// Seed salts keep the independent random streams of one run apart.
const (
	saltOrder   = 1  // kernel draw order and example choice
	saltInputs  = 2  // input assignments (Spec.RandomExample)
	saltSample  = 3  // which responses the oracle decrypts
	saltSetup   = 4  // the registry's embedded samples
	examplesPer = 4  // distinct pre-encrypted inputs per kernel
	samplesPer  = 64 // responses the oracle keeps per kernel and phase
)

func subSeed(seed int64, salt int64) int64 { return seed*1_000_003 + salt }

// request is one generated request: which kernel, with which of its
// pre-encrypted examples.
type request struct{ Kernel, Example int }

// roundsSequence draws requests in rounds: every round visits each of n
// kernels once, in a seeded order, so every kernel gets the same share
// of a run whatever its length.
func roundsSequence(seed int64, n int) func() request {
	rng := rand.New(rand.NewSource(subSeed(seed, saltOrder)))
	var perm []int
	return func() request {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		k := perm[0]
		perm = perm[1:]
		return request{Kernel: k, Example: rng.Intn(examplesPer)}
	}
}

// weightedSequence draws kernel i with probability w[i]/Σw, one
// independent stream per client.
func weightedSequence(seed int64, client int, w []int) func() request {
	rng := rand.New(rand.NewSource(subSeed(seed, saltOrder) + int64(client+1)*7919))
	total := 0
	for _, x := range w {
		total += x
	}
	return func() request {
		r := rng.Intn(total)
		k := 0
		for r >= w[k] {
			r -= w[k]
			k++
		}
		return request{Kernel: k, Example: rng.Intn(examplesPer)}
	}
}

// input is one pre-encrypted request: the example it was drawn from,
// its ciphertexts, and (for HTTP) its wire-encoded body.
type input struct {
	ex   *kernels.Example
	req  *wire.Request
	body []byte
}

// buildInputs draws examplesPer examples per kernel from the seed and
// encrypts kernel k's under ctxOf(k); withBodies also wire-encodes each
// request.
func buildInputs(ctxOf func(k int) *backend.Context, specs []*kernels.Spec, seed int64, withBodies bool) ([][]input, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, saltInputs)))
	out := make([][]input, len(specs))
	for k, spec := range specs {
		ctx := ctxOf(k)
		for e := 0; e < examplesPer; e++ {
			in, err := encryptExample(ctx, spec.RandomExample(rng))
			if err != nil {
				return nil, fmt.Errorf("encrypting %s input: %w", spec.Name, err)
			}
			if withBodies {
				if in.body, err = wire.EncodeRequest(ctx.Params, in.req); err != nil {
					return nil, err
				}
			}
			out[k] = append(out[k], in)
		}
	}
	return out, nil
}

func encryptExample(ctx *backend.Context, ex *kernels.Example) (input, error) {
	req := &wire.Request{PtIn: ex.PtIn}
	for _, v := range ex.CtIn {
		ct, err := ctx.EncryptVec(v)
		if err != nil {
			return input{}, err
		}
		req.CtIn = append(req.CtIn, ct)
	}
	return input{ex: ex, req: req}, nil
}

// matches decrypts out with the exporter's secret key and compares it
// with the specification's reference on the cared slots — the oracle
// independent of the compiler and of the serving path.
func matches(ctx *backend.Context, spec *kernels.Spec, ex *kernels.Example, out *bfv.Ciphertext) bool {
	return out != nil && spec.Matches(ctx.DecryptVec(out, spec.VecLen), ex)
}

// kept is one response retained for the oracle: the request it answers
// and its output, either as a ciphertext or a wire-encoded body.
type kept struct {
	req  request
	out  *bfv.Ciphertext
	body []byte
}

// reservoir keeps a seeded uniform sample of at most size responses per
// kernel (algorithm R). Responses are copied only once selected.
type reservoir struct {
	mu    sync.Mutex
	rng   *rand.Rand
	size  int
	seen  []int
	items [][]kept
}

func newReservoir(seed int64, stream, kernels, size int) *reservoir {
	return &reservoir{
		rng:   rand.New(rand.NewSource(subSeed(seed, saltSample) + int64(stream)*104729)),
		size:  size,
		seen:  make([]int, kernels),
		items: make([][]kept, kernels),
	}
}

// offer considers one response; keep materializes it when selected.
func (r *reservoir) offer(req request, keep func() kept) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := req.Kernel
	r.seen[k]++
	switch {
	case len(r.items[k]) < r.size:
		r.items[k] = append(r.items[k], keep())
	default:
		if j := r.rng.Intn(r.seen[k]); j < r.size {
			r.items[k][j] = keep()
		}
	}
}

// oracle decrypts every kept response under ctxOf(kernel) and counts
// each mismatch with the specification as a failed operation.
func (rep *report) oracle(ctxOf func(k int) *backend.Context, specs []*kernels.Spec, inputs [][]input, rs []*reservoir) error {
	checked := make([]int, len(specs))
	wrong := make([]int, len(specs))
	for _, r := range rs {
		for k, items := range r.items {
			ctx := ctxOf(k)
			for _, it := range items {
				out := it.out
				if out == nil {
					var err error
					if out, err = wire.DecodeResponse(ctx.Params, it.body); err != nil {
						return fmt.Errorf("decoding %s response: %w", specs[k].Name, err)
					}
				}
				checked[k]++
				if !matches(ctx, specs[k], inputs[k][it.req.Example].ex, out) {
					wrong[k]++
				}
			}
		}
	}
	for k, spec := range specs {
		if wrong[k] > 0 {
			rep.fail(wrong[k], "%s: %d of %d sampled outputs decrypt wrong", spec.Name, wrong[k], checked[k])
		}
	}
	rep.Reconcile["oracle_checked"] = namedCounts(specs, checked)
	return nil
}

func namedCounts(specs []*kernels.Spec, counts []int) map[string]int {
	m := make(map[string]int, len(specs))
	for k, spec := range specs {
		m[spec.Name] = counts[k]
	}
	return m
}
