package ring

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
)

// Sampler draws random ring elements from the distributions used by
// BFV: uniform over R_Q, ternary secrets, and centered-binomial errors.
// A Sampler created with NewSampler uses crypto/rand; NewTestSampler
// uses a seeded deterministic source for reproducible tests.
//
// Randomness is read from the source in blocks and consumed eight
// bytes at a time, leftovers carried over to the next call, so a
// seeded sampler draws exactly the byte stream an unbuffered reader
// would. Uniform, Ternary and Error are safe for concurrent use: each
// call holds the sampler for its whole polynomial.
type Sampler struct {
	r   *Ring
	src io.Reader

	mu  sync.Mutex
	buf [samplerBlock]byte
	off int // next unread byte of buf; samplerBlock when empty
}

// samplerBlock is the refill size in bytes, a multiple of the 8-byte
// draw so no read ever straddles a refill.
const samplerBlock = 4096

// NewSampler returns a cryptographically secure sampler for the ring.
func NewSampler(r *Ring) *Sampler {
	return &Sampler{r: r, src: rand.Reader, off: samplerBlock}
}

// NewTestSampler returns a deterministic sampler seeded with seed.
// It must only be used in tests and benchmarks.
func NewTestSampler(r *Ring, seed int64) *Sampler {
	return &Sampler{r: r, src: deterministicReader{mrand.New(mrand.NewSource(seed))}, off: samplerBlock}
}

type deterministicReader struct{ rng *mrand.Rand }

// Read yields one byte per Int63 draw: byte(Int63()>>32) is exactly
// rng.Intn(256), whose stream every seeded fixture was generated from.
func (d deterministicReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.rng.Int63() >> 32)
	}
	return len(p), nil
}

// next64 returns the next eight bytes of the stream as a little-endian
// word. The caller holds s.mu.
func (s *Sampler) next64() (uint64, error) {
	if s.off == samplerBlock {
		if _, err := io.ReadFull(s.src, s.buf[:]); err != nil {
			return 0, fmt.Errorf("ring: randomness source failed: %w", err)
		}
		s.off = 0
	}
	v := binary.LittleEndian.Uint64(s.buf[s.off:])
	s.off += 8
	return v, nil
}

// uint64n draws an unbiased value in [0, bound) by rejection sampling.
// The caller holds s.mu.
func (s *Sampler) uint64n(bound uint64) (uint64, error) {
	threshold := (^uint64(0) / bound) * bound
	for {
		v, err := s.next64()
		if err != nil {
			return 0, err
		}
		if v < threshold {
			return v % bound, nil
		}
	}
}

// Uniform fills p with coefficients uniform in [0, p_i) per prime.
// The per-prime residues are sampled independently, which yields a
// uniform element of R_Q by CRT.
func (s *Sampler) Uniform(p *Poly) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, pr := range s.r.Primes {
		for j := range p.Coeffs[i] {
			v, err := s.uint64n(pr)
			if err != nil {
				return err
			}
			p.Coeffs[i][j] = v
		}
	}
	return nil
}

// Ternary fills p with coefficients drawn uniformly from {-1, 0, 1},
// represented mod each prime. This is the BFV secret-key distribution.
func (s *Sampler) Ternary(p *Poly) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := 0; j < s.r.N; j++ {
		v, err := s.uint64n(3)
		if err != nil {
			return err
		}
		for i, pr := range s.r.Primes {
			switch v {
			case 0:
				p.Coeffs[i][j] = 0
			case 1:
				p.Coeffs[i][j] = 1
			default:
				p.Coeffs[i][j] = pr - 1
			}
		}
	}
	return nil
}

// cbdK is the parameter of the centered binomial distribution used for
// error sampling: sum of cbdK bits minus sum of cbdK bits, giving
// variance cbdK/2 (σ ≈ 3.2 for cbdK = 21, matching the HE standard).
const cbdK = 21

// Error fills p with centered-binomial noise of standard deviation
// ≈ 3.2 (the error distribution mandated by the HE security standard).
func (s *Sampler) Error(p *Poly) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := 0; j < s.r.N; j++ {
		w, err := s.next64()
		if err != nil {
			return err
		}
		e := cbd(w)
		for i, pr := range s.r.Primes {
			if e >= 0 {
				p.Coeffs[i][j] = uint64(e)
			} else {
				p.Coeffs[i][j] = pr - uint64(-e)
			}
		}
	}
	return nil
}

// cbdEven and cbdOdd select the cbdK even- and odd-position bits of
// the low 2·cbdK bits of a draw.
const (
	cbdEven = 0x5555555555555555 & (1<<(2*cbdK) - 1)
	cbdOdd  = 0xAAAAAAAAAAAAAAAA & (1<<(2*cbdK) - 1)
)

// cbd maps the low 2·cbdK bits of w to a centered-binomial sample:
// the even-position bits count up, the odd-position bits count down.
func cbd(w uint64) int64 {
	return int64(bits.OnesCount64(w&cbdEven)) - int64(bits.OnesCount64(w&cbdOdd))
}

// SetSmall writes a small signed coefficient vector (e.g. a plaintext
// lifted to R_Q) into p, zeroing any remaining coefficients.
func (r *Ring) SetSmall(p *Poly, coeffs []int64) {
	for j, c := range coeffs {
		for i, pr := range r.Primes {
			if c >= 0 {
				p.Coeffs[i][j] = uint64(c) % pr
			} else {
				p.Coeffs[i][j] = pr - uint64(-c)%pr
			}
		}
	}
	for j := len(coeffs); j < r.N; j++ {
		for i := range r.Primes {
			p.Coeffs[i][j] = 0
		}
	}
}

// InfNormCenteredLog2 returns log2 of the infinity norm of p under the
// centered representative (or 0 for the zero polynomial). Used for
// noise diagnostics and tests.
func (r *Ring) InfNormCenteredLog2(p *Poly) float64 {
	res := make([]uint64, len(r.Primes))
	var tmp big.Int
	maxBits := 0.0
	for j := 0; j < r.N; j++ {
		for i := range r.Primes {
			res[i] = p.Coeffs[i][j]
		}
		r.crt.ReconstructCentered(&tmp, res)
		tmp.Abs(&tmp)
		if tmp.Sign() == 0 {
			continue
		}
		bits := bigLog2(&tmp)
		if bits > maxBits {
			maxBits = bits
		}
	}
	return maxBits
}

// bigLog2 returns log2(x) for a positive big integer x.
func bigLog2(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}
