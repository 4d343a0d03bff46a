package main

import (
	"math/bits"
	"sync"
	"time"
)

// The machine this benchmark was written on changes speed under it:
// memory-heavy loops run up to twice as slow for seconds to minutes at a
// time, with the program unchanged (see NOTES.md). So a probe kernel
// that shares no code with the program runs every probeEvery on its own
// goroutine for the whole run, and each end-to-end time is divided by
// the probe's median slowdown over that time's own window (each rate
// multiplied by it). The result reads as the time on a machine where
// the probe takes probeNominal, its typical time on the 2-vCPU Xeon the
// benchmark was written on; the raw figures stay in the report.
const (
	probeEvery   = 10 * time.Millisecond
	probeWords   = 4096 // per row; three rows, like a PN4096 polynomial
	probeNominal = 150 * time.Microsecond
)

// speedProbe samples the probe kernel's duration in the background.
type speedProbe struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	offsets []time.Duration // sample start, since start
	took    []time.Duration
}

func startProbe() *speedProbe {
	p := &speedProbe{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	rows := make([]uint64, 3*probeWords)
	for i := range rows {
		rows[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		for r := 0; r < 3; r++ {
			butterflies(rows[r*probeWords : (r+1)*probeWords])
		}
		took := time.Since(t0)
		p.mu.Lock()
		p.offsets = append(p.offsets, t0.Sub(p.start))
		p.took = append(p.took, took)
		p.mu.Unlock()
	}
}

// butterflies makes the radix-2 passes of a number-theoretic transform
// over a, with a multiply-high mix in place of modular arithmetic: the
// memory and multiply pattern of the program's hot loop, in code the
// program does not share.
func butterflies(a []uint64) {
	n := len(a)
	for half := n / 2; half >= 1; half /= 2 {
		for start := 0; start < n; start += 2 * half {
			for j := start; j < start+half; j++ {
				hi, lo := bits.Mul64(a[j+half], 0x9E3779B97F4A7C15)
				u, v := a[j], hi^lo
				a[j], a[j+half] = u+v, u-v
			}
		}
	}
}

// close stops the probe and waits for its goroutine to end.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// slowdown returns the probe's median duration over the windows
// relative to probeNominal, or 1 when they hold no sample.
func (p *speedProbe) slowdown(ws ...window) float64 {
	p.mu.Lock()
	var xs []float64
	for i, at := range p.offsets {
		t := p.start.Add(at)
		for _, w := range ws {
			if !t.Before(w.from) && !t.After(w.to) {
				xs = append(xs, float64(p.took[i]))
				break
			}
		}
	}
	p.mu.Unlock()
	if len(xs) == 0 {
		return 1
	}
	return median(xs) / float64(probeNominal)
}
