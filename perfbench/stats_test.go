package main

import (
	"math"
	"testing"
)

func TestHighestTailLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{5, 0, false},   // even the median leaves fewer than 10 above it
		{21, 50, true},  // median: rank 11, 10 beyond
		{40, 75, true},  // p75: rank 30, 10 beyond
		{100, 90, true}, // p90: rank 90, 10 beyond; p95 would leave 5
		{1000, 99, true},
		{20000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted input
		}
		got, ok := highestTail(xs)
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if got.N != c.n {
			t.Errorf("n=%d: reported count %d", c.n, got.N)
		}
		if !ok {
			continue
		}
		if got.Pct != c.wantPct {
			t.Errorf("n=%d: picked p%g, want p%g", c.n, got.Pct, c.wantPct)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, got.Pct, got.Beyond)
		}
		// Values are 1..n, so the value is its own rank; exactly Beyond
		// samples exceed it.
		if above := c.n - int(got.Value); above != got.Beyond {
			t.Errorf("n=%d: value %g has %d above it, reported %d", c.n, got.Value, above, got.Beyond)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g", got)
	}
}

func TestBatchMeanWeightsBatches(t *testing.T) {
	// One batch of 4 (each member reports 4) and two singletons: three
	// batches carrying six requests.
	if got := batchMean([]float64{4, 4, 4, 4, 1, 1}); got != 2 {
		t.Errorf("batchMean = %g, want 2", got)
	}
}
