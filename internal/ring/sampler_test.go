package ring

import (
	"encoding/binary"
	"errors"
	"io"
	mrand "math/rand"
	"sync"
	"testing"
)

// refSampler is the unbuffered sampler the block-reading Sampler
// replaced: eight bytes per io.ReadFull straight from the source, one
// rng.Intn(256) per byte for seeded sources. It is the reference the
// buffered sampler must reproduce draw for draw.
type refSampler struct {
	r   *Ring
	src io.Reader
}

type refReader struct{ rng *mrand.Rand }

func (d refReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.rng.Intn(256))
	}
	return len(p), nil
}

func newRefSampler(r *Ring, seed int64) *refSampler {
	return &refSampler{r: r, src: refReader{mrand.New(mrand.NewSource(seed))}}
}

func (s *refSampler) uint64n(bound uint64) uint64 {
	var buf [8]byte
	threshold := (^uint64(0) / bound) * bound
	for {
		if _, err := io.ReadFull(s.src, buf[:]); err != nil {
			panic(err)
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v < threshold {
			return v % bound
		}
	}
}

func (s *refSampler) Uniform(p *Poly) {
	for i, pr := range s.r.Primes {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = s.uint64n(pr)
		}
	}
}

func (s *refSampler) Ternary(p *Poly) {
	for j := 0; j < s.r.N; j++ {
		v := s.uint64n(3)
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
}

func (s *refSampler) Error(p *Poly) {
	for j := 0; j < s.r.N; j++ {
		var buf [8]byte
		if _, err := io.ReadFull(s.src, buf[:]); err != nil {
			panic(err)
		}
		bits := binary.LittleEndian.Uint64(buf[:])
		var e int64
		for i := 0; i < cbdK; i++ {
			e += int64(bits >> (2 * i) & 1)
			e -= int64(bits >> (2*i + 1) & 1)
		}
		for i, pr := range s.r.Primes {
			if e >= 0 {
				p.Coeffs[i][j] = uint64(e)
			} else {
				p.Coeffs[i][j] = pr - uint64(-e)
			}
		}
	}
}

// TestSamplerMatchesUnbufferedReader interleaves every distribution on
// rings whose draws per call are not multiples of the refill block, so
// leftover bytes carry across calls, and checks each polynomial
// against the unbuffered reference sampler seeded alike.
func TestSamplerMatchesUnbufferedReader(t *testing.T) {
	for _, shape := range []struct{ n, primes int }{{16, 1}, {64, 3}, {256, 2}, {1024, 5}} {
		r := testRing(t, shape.n, shape.primes)
		for _, seed := range []int64{1, 7, 42} {
			s := NewTestSampler(r, seed)
			ref := newRefSampler(r, seed)
			got, want := r.NewPoly(), r.NewPoly()
			for call := 0; call < 40; call++ {
				var err error
				switch call % 5 {
				case 0, 3:
					err = s.Uniform(got)
					ref.Uniform(want)
				case 1:
					err = s.Ternary(got)
					ref.Ternary(want)
				default:
					err = s.Error(got)
					ref.Error(want)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !r.Equal(got, want) {
					t.Fatalf("N=%d K=%d seed %d: call %d diverges from the unbuffered reader", shape.n, shape.primes, seed, call)
				}
			}
		}
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

// TestSamplerSourceFailure surfaces a failing source from every
// distribution instead of returning stale buffer contents.
func TestSamplerSourceFailure(t *testing.T) {
	r := testRing(t, 16, 1)
	s := &Sampler{r: r, src: failingReader{}, off: samplerBlock}
	p := r.NewPoly()
	for name, f := range map[string]func(*Poly) error{"Uniform": s.Uniform, "Ternary": s.Ternary, "Error": s.Error} {
		if err := f(p); err == nil {
			t.Errorf("%s: no error from a failing randomness source", name)
		}
	}
}

// TestSamplerConcurrentCalls shares one seeded sampler between
// goroutines (run under -race). Each call holds the sampler for its
// whole polynomial, so the multiset of polynomials drawn equals the
// serial stream's, whatever the interleaving.
func TestSamplerConcurrentCalls(t *testing.T) {
	r := testRing(t, 64, 2)
	const calls = 16
	serial := NewTestSampler(r, 9)
	want := map[uint64]int{}
	for i := 0; i < calls; i++ {
		p := r.NewPoly()
		if err := serial.Uniform(p); err != nil {
			t.Fatal(err)
		}
		want[p.Coeffs[0][0]^p.Coeffs[1][r.N-1]<<1]++
	}
	shared := NewTestSampler(r, 9)
	var (
		mu  sync.Mutex
		got = map[uint64]int{}
		wg  sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/4; i++ {
				p := r.NewPoly()
				if err := shared.Uniform(p); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[p.Coeffs[0][0]^p.Coeffs[1][r.N-1]<<1]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("concurrent draws are not the serial stream's polynomials: key %#x seen %d times, want %d", k, got[k], n)
		}
	}
}
