package main

import (
	"math/rand"
	"reflect"
	"testing"

	"porcupine/internal/kernels"
)

func draw(next func() request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSameSeedSameRequestSequence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		a := draw(roundsSequence(seed, 11), 500)
		b := draw(roundsSequence(seed, 11), 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: rounds sequences differ", seed)
		}
		for c := 0; c < burstClients; c++ {
			a := draw(weightedSequence(seed, c, burstWeights), 500)
			b := draw(weightedSequence(seed, c, burstWeights), 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d client %d: weighted sequences differ", seed, c)
			}
		}
	}
	if reflect.DeepEqual(draw(roundsSequence(1, 11), 50), draw(roundsSequence(2, 11), 50)) {
		t.Error("seeds 1 and 2 draw the same rounds sequence")
	}
	if reflect.DeepEqual(draw(weightedSequence(1, 0, burstWeights), 50), draw(weightedSequence(1, 1, burstWeights), 50)) {
		t.Error("two burst clients draw the same sequence")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	spec := kernels.ByName("dot-product")
	ex := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(subSeed(seed, saltInputs)))
		return spec.RandomExample(rng).Assign
	}
	if !reflect.DeepEqual(ex(7), ex(7)) {
		t.Fatal("same seed drew different input assignments")
	}
	if reflect.DeepEqual(ex(7), ex(8)) {
		t.Error("seeds 7 and 8 drew the same input assignment")
	}
}

func TestRoundsVisitEveryKernelOncePerRound(t *testing.T) {
	const n = 11
	seq := draw(roundsSequence(3, n), 5*n)
	for r := 0; r < 5; r++ {
		seen := map[int]bool{}
		for _, q := range seq[r*n : (r+1)*n] {
			if seen[q.Kernel] {
				t.Fatalf("round %d visits kernel %d twice", r, q.Kernel)
			}
			seen[q.Kernel] = true
			if q.Example < 0 || q.Example >= examplesPer {
				t.Fatalf("example index %d out of range", q.Example)
			}
		}
	}
}

func TestWeightedSequenceFollowsWeights(t *testing.T) {
	counts := make([]int, len(burstWeights))
	for _, q := range draw(weightedSequence(5, 0, burstWeights), 40000) {
		counts[q.Kernel]++
	}
	share := float64(counts[0]) / 40000
	if share < 0.73 || share > 0.77 {
		t.Errorf("first kernel drawn %.3f of the time, want ≈ 0.75", share)
	}
}

func TestReservoirKeepsSizeAndIsSeeded(t *testing.T) {
	pick := func(seed int64) []kept {
		r := newReservoir(seed, 0, 1, 8)
		for i := 0; i < 1000; i++ {
			r.offer(request{Example: i}, func() kept { return kept{req: request{Example: i}} })
		}
		return r.items[0]
	}
	a, b := pick(9), pick(9)
	if len(a) != 8 {
		t.Fatalf("kept %d, want 8", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed kept different responses")
	}
}
