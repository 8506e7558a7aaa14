package main

import (
	"math"
	"math/rand"
	"sync"
)

// gradients is the seeded input of the reduce workloads: a small pool of
// heavy-tailed (Laplace) gradients per rank, generated before timing.
// Step s of rank r hands the reducer pool[r][s%len(pool[r])] rotated by a
// seeded offset, so every step selects a fresh top-k set while the pool
// stays a few vectors per rank.
//
// The older BENCH_* workloads use the pattern (i*7+w)%101/100, which has
// only 101 distinct magnitudes: top-k selection then runs on massive ties
// and is cheaper than on real gradients, understating the selection layer.
// Continuous Laplace values have no ties.
type gradients struct {
	seed int64
	n    int
	pool [][][]float32 // [rank][slot][n]
}

// newGradients generates size Laplace(0, 1) vectors of length n for each
// of p ranks from seed, one goroutine per rank.
func newGradients(seed int64, p, n, size int) *gradients {
	g := &gradients{seed: seed, n: n, pool: make([][][]float32, p)}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix(seed, int64(r), -1)))
			g.pool[r] = make([][]float32, size)
			for i := range g.pool[r] {
				v := make([]float32, n)
				for j := range v {
					v[j] = laplace(rng)
				}
				g.pool[r][i] = v
			}
		}(r)
	}
	wg.Wait()
	return g
}

// laplace draws from Laplace(0, 1) by inverting its CDF.
func laplace(rng *rand.Rand) float32 {
	u := rng.Float64() - 0.5
	for u == -0.5 { // log1p(-1) is -Inf
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return float32(math.Log1p(2 * u))
	}
	return float32(-math.Log1p(-2 * u))
}

// fill writes rank r's step-s gradient into buf.
func (g *gradients) fill(buf []float32, r, s int) {
	slots := g.pool[r]
	src := slots[s%len(slots)]
	off := int(uint64(mix(g.seed, int64(r), int64(s))) % uint64(g.n))
	copy(buf, src[off:])
	copy(buf[g.n-off:], src[:off])
}

// mix derives a well-spread 64-bit value from (seed, a, b) with the
// splitmix64 finalizer.
func mix(seed, a, b int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(a)*0xBF58476D1CE4E5B9 ^ uint64(b)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
