// The livenet directory holds no code, only the determinism suites of the
// in-memory backend that spardl.LiveBackend returns: tcpnet's endpoint
// meshed in one process over in-memory pipes (tcpnet.MemBackend).
package livenet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/simnet"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/wire"
)

// TestBackendEquivalence is the in-process analogue of the encoded
// round-trip check: for every sparse reducer factory and every wire mode,
// running the same gradient streams over the endpoint's real byte-level
// transport — here meshed over in-memory pipes — must produce gradients
// bit-identical to the α-β simulator's. This pins the package
// determinism contract — the serialize/deserialize round-trip through the
// wire codecs loses nothing, and goroutine scheduling decides nothing.
// The default methods all run with adaptive sparse↔dense representation
// switching (the package default); the "-flip" entries shrink n and raise
// k until the reduce-scatter fan-in is guaranteed to densify mid-collective
// (P·k/n ≈ 2 entries per block position), and the explicit never/always
// policies bracket the adaptive decision — every configuration must stay
// bit-identical across backends regardless of which representation each
// stream is in when it crosses the wire.
func TestBackendEquivalence(t *testing.T) {
	const n, k, iters = 2000, 60, 3
	const flipN, flipK = 1024, 512 // fan-in density ≈ P·k/n ≥ 2 → dense switch

	type method struct {
		name string
		p    int
		f    func(mode wire.Mode) sparsecoll.Factory
		n, k int
	}
	spardl := func(opts core.Options) func(mode wire.Mode) sparsecoll.Factory {
		return func(mode wire.Mode) sparsecoll.Factory {
			opts := opts
			opts.Wire = mode
			return core.NewFactory(opts)
		}
	}
	baseline := func(f sparsecoll.Factory) func(mode wire.Mode) sparsecoll.Factory {
		return func(mode wire.Mode) sparsecoll.Factory { return sparsecoll.WireVariant(f, mode) }
	}
	densePolicy := func(f sparsecoll.Factory, pol sparse.DensePolicy) func(mode wire.Mode) sparsecoll.Factory {
		return func(mode wire.Mode) sparsecoll.Factory {
			return sparsecoll.WireVariant(sparsecoll.DenseVariant(f, pol), mode)
		}
	}
	methods := []method{
		{"spardl", 6, spardl(core.Options{}), n, k},
		{"spardl-eager", 6, spardl(core.Options{Eager: true}), n, k},
		{"spardl-d2-rsag", 6, spardl(core.Options{Teams: 2}), n, k},
		{"spardl-d3-bsag", 6, spardl(core.Options{Teams: 3}), n, k},
		{"topka", 6, baseline(sparsecoll.NewTopkA), n, k},
		{"topkdsa", 6, baseline(sparsecoll.NewTopkDSA), n, k},
		{"oktopk", 6, baseline(sparsecoll.NewOkTopk), n, k},
		{"gtopk", 4, baseline(sparsecoll.NewGTopk), n, k},
		{"dense", 6, baseline(sparsecoll.NewDense), n, k},
		// Forced mid-collective sparse→dense flips.
		{"spardl-flip", 4, spardl(core.Options{}), flipN, flipK},
		{"spardl-flip-eager", 4, spardl(core.Options{Eager: true}), flipN, flipK},
		{"topkdsa-flip", 4, baseline(sparsecoll.NewTopkDSA), flipN, flipK},
		{"oktopk-flip", 4, baseline(sparsecoll.NewOkTopk), flipN, flipK},
		// Policy brackets at the flip configuration.
		{"spardl-flip-never", 4, spardl(core.Options{Dense: sparse.DenseNever}), flipN, flipK},
		{"spardl-flip-always", 4, spardl(core.Options{Dense: sparse.DenseAlways}), flipN, flipK},
		{"topkdsa-flip-never", 4, densePolicy(sparsecoll.NewTopkDSA, sparse.DenseNever), flipN, flipK},
		{"topkdsa-flip-always", 4, densePolicy(sparsecoll.NewTopkDSA, sparse.DenseAlways), flipN, flipK},
	}
	modes := []wire.Mode{wire.ModeCOO, wire.ModeNegotiated, wire.ModeEncoded}

	for _, m := range methods {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", m.name, mode), func(t *testing.T) {
				f := m.f(mode)
				sim := runReducer(simnet.Backend(simnet.Ethernet), f, m.p, m.n, m.k, iters)
				live := runReducer(tcpnet.MemBackend(nil), f, m.p, m.n, m.k, iters)
				for it := 0; it < iters; it++ {
					for rank := 0; rank < m.p; rank++ {
						if !equal32(sim[it][rank], live[it][rank]) {
							t.Fatalf("iter %d rank %d: in-memory gradient diverges from simnet", it, rank)
						}
					}
					// Replicas must also agree with each other on the live
					// backend — the property S-SGD relies on.
					for rank := 1; rank < m.p; rank++ {
						if !equal32(live[it][0], live[it][rank]) {
							t.Fatalf("iter %d: in-memory replicas 0 and %d diverge", it, rank)
						}
					}
				}
			})
		}
	}
}

// The flip configuration must really produce different results than a
// never-densified run would only if determinism broke — so instead we pin
// the opposite: never/adaptive/always all agree bit-for-bit on the final
// gradients. A representation switch is an implementation detail; the
// moment it changes a single bit of output, this fails.
func TestDensePoliciesAgreeOnOutputs(t *testing.T) {
	const p, flipN, flipK, iters = 4, 1024, 512, 3
	var results [][][][]float32
	for _, pol := range []sparse.DensePolicy{sparse.DenseNever, sparse.DenseAdaptive, sparse.DenseAlways} {
		f := core.NewFactory(core.Options{Dense: pol, Wire: wire.ModeEncoded})
		results = append(results, runReducer(tcpnet.MemBackend(nil), f, p, flipN, flipK, iters))
	}
	for it := 0; it < iters; it++ {
		for rank := 0; rank < p; rank++ {
			if !equal32(results[0][it][rank], results[1][it][rank]) ||
				!equal32(results[0][it][rank], results[2][it][rank]) {
				t.Fatalf("iter %d rank %d: dense policies disagree on outputs", it, rank)
			}
		}
	}
}

// runReducer executes iters synchronization steps of factory f over the
// backend and returns every worker's output gradient per iteration.
func runReducer(b comm.Backend, f sparsecoll.Factory, p, n, k, iters int) [][][]float32 {
	outs := make([][][]float32, iters)
	for it := range outs {
		outs[it] = make([][]float32, p)
	}
	b.Run(p, func(rank int, ep comm.Endpoint) {
		r := f(p, rank, n, k)
		for it := 0; it < iters; it++ {
			outs[it][rank] = r.Reduce(ep, testGrad(rank, it, n))
			ep.SyncClock()
		}
	})
	return outs
}

// testGrad builds a deterministic pseudo-random gradient for one worker
// and iteration: dense enough to exercise every encoding, with exact zero
// runs so the bitmap/delta formats both win sometimes.
func testGrad(rank, iter, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*iter + rank)))
	g := make([]float32, n)
	for i := range g {
		if rng.Intn(4) == 0 {
			continue // keep exact zeros
		}
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
