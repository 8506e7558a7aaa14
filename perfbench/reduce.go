package main

import (
	"fmt"
	"runtime"
	"time"

	"spardl"
	"spardl/internal/comm"
)

// reduceWorkload drives ReduceInto on persistent reducers, one per rank,
// the way a training loop holds them, with no model in the loop.
type reduceWorkload struct {
	p, n     int
	density  float64 // k/n
	opts     spardl.Options
	backend  func() spardl.Backend
	poolSize int // gradients per rank
	warmup   int // untimed steps per episode
	steps    int // timed steps per episode
	// replay marks a live backend: one episode is rerun on simnet, which
	// must produce the same digest sequence (the cross-backend bit-identity
	// invariant).
	replay bool
}

// reduceSim is SparDL at paper scale on the α-β simulator: selection and
// merge do nearly all the work.
var reduceSim = reduceWorkload{
	p: 14, n: 1 << 20, density: 0.01,
	opts:     spardl.Options{Teams: 7, Variant: spardl.BSAG},
	backend:  func() spardl.Backend { return spardl.SimBackend(spardl.Ethernet) },
	poolSize: 2, warmup: 1, steps: 30,
}

// reduceTCP is one 64 KiB fp32 bucket over loopback TCP: small frames,
// syscalls and wake-ups, the latency-bound regime.
var reduceTCP = reduceWorkload{
	p: 4, n: 1 << 14, density: 0.01,
	opts:     spardl.Options{Teams: 2, Variant: spardl.RSAG},
	backend:  spardl.TCPLocalBackend,
	poolSize: 8, warmup: 50, steps: 1000,
	replay: true,
}

func (w reduceWorkload) k() int { return int(w.density * float64(w.n)) }

// reduceEpisode is one fabric lifetime: set-up, warm-up, timed steps.
type reduceEpisode struct {
	setup   time.Duration
	steps   []time.Duration // timed steps, as rank 0 saw them
	digests [][]uint64      // [rank][step], warm-up steps included
	report  *comm.Report
	cum     []float64    // rank 0's outputs summed over all steps, if asked
	traces  []*rankTrace // nil when untraced
	mem     [2]runtime.MemStats
}

// episode forms a fabric on backend, builds one reducer per rank with
// factory, and runs warm-up plus timed steps over the inputs g; with
// accumulate, rank 0 also sums its outputs into e.cum. Each step
// is: fill the rank's input, barrier, ReduceInto, barrier, digest the
// output. Rank 0 times from the first barrier's exit to the second's, so
// the step covers the reduce and the wait for the slowest rank, while
// input generation and the digest stay outside it. The first barrier runs
// on the raw endpoint so traced spans fall inside timed steps only.
// A panic anywhere in the fleet comes back as an error.
func (w reduceWorkload) episode(backend comm.Backend, factory spardl.Factory, g *gradients, traced, accumulate bool) (e *reduceEpisode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("episode failed: %v", r)
		}
	}()
	total := w.warmup + w.steps
	e = &reduceEpisode{steps: make([]time.Duration, w.steps), digests: make([][]uint64, w.p)}
	for r := range e.digests {
		e.digests[r] = make([]uint64, total)
	}
	if accumulate {
		e.cum = make([]float64, w.n)
	}
	if traced {
		e.traces = make([]*rankTrace, w.p)
		for r := range e.traces {
			e.traces[r] = newRankTrace(w.steps)
		}
	}
	start := time.Now()
	e.report = backend.Run(w.p, func(rank int, raw comm.Endpoint) {
		red := factory(w.p, rank, w.n, w.k())
		buf := make([]float32, w.n)
		out := make([]float32, w.n)
		ep := raw
		var rt *rankTrace
		if traced {
			rt = e.traces[rank]
			ep = &tracedEndpoint{ep: raw, rt: rt}
		}
		raw.SyncClock()
		if rank == 0 {
			e.setup = time.Since(start)
		}
		var t0 time.Time
		for s := 0; s < total; s++ {
			i := s - w.warmup
			g.fill(buf, rank, s)
			raw.SyncClock()
			if rt != nil && i == 0 {
				rt.reset()
				rt.statsStart = raw.Stats()
				if rank == 0 {
					runtime.ReadMemStats(&e.mem[0])
				}
			}
			if rank == 0 {
				t0 = time.Now()
			}
			if rt != nil {
				rs, before := time.Now(), rt.inEndpoint
				spardl.ReduceInto(red, ep, buf, out)
				rt.endReduce(i, rs, before)
			} else {
				spardl.ReduceInto(red, ep, buf, out)
			}
			ep.SyncClock()
			if rank == 0 && i >= 0 {
				e.steps[i] = time.Since(t0)
			}
			e.digests[rank][s] = digest(out)
			if rank == 0 && e.cum != nil {
				for j, v := range out {
					e.cum[j] += float64(v)
				}
			}
		}
		if rt != nil {
			rt.statsEnd = raw.Stats()
			if rank == 0 {
				runtime.ReadMemStats(&e.mem[1])
			}
		}
	})
	return e, nil
}

// failedSteps counts the steps of e whose outputs disagree across ranks or
// differ from the reference digest sequence ref (rank 0's, from an earlier
// episode or a replay of the same inputs); ref may be nil.
func (e *reduceEpisode) failedSteps(ref []uint64) int {
	bad := 0
	for s := range e.digests[0] {
		ok := ref == nil || e.digests[0][s] == ref[s]
		for r := 1; ok && r < len(e.digests); r++ {
			ok = e.digests[r][s] == e.digests[0][s]
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// undeliveredLoss is the reduce workloads' final_loss: the squared error
// of the episode's summed reduce outputs (cum) against the dense sum of all
// its inputs, relative to the latter's squared norm. With error feedback
// the difference is what the residuals still hold back, so this is the
// share of gradient energy the sparse all-reduce has not yet delivered. It
// is a pure function of the seed, so it also pins the reducer's semantics.
func (w reduceWorkload) undeliveredLoss(g *gradients, cum []float64) float64 {
	sum := make([]float64, w.n)
	buf := make([]float32, w.n)
	for s := 0; s < w.warmup+w.steps; s++ {
		for r := 0; r < w.p; r++ {
			g.fill(buf, r, s)
			for i, v := range buf {
				sum[i] += float64(v)
			}
		}
	}
	var num, den float64
	for i, s := range sum {
		d := cum[i] - s
		num += d * d
		den += s * s
	}
	return num / den
}

// run measures the workload for o.seconds and checks every step.
func (w reduceWorkload) run(o options) *outcome {
	out := &outcome{}
	g := newGradients(o.seed, w.p, w.n, w.poolSize)
	factory := spardl.NewFactory(w.opts)
	total := w.warmup + w.steps
	var ref []uint64

	runOne := func(p phase) bool {
		runtime.GC() // start every episode from the same collected heap
		e, err := w.episode(w.backend(), factory, g, p == traced, ref == nil)
		out.attempted += total
		if err != nil {
			out.fail(total, err)
			return false
		}
		if bad := e.failedSteps(ref); bad > 0 {
			out.fail(bad, fmt.Errorf("%d of %d steps: reduce outputs disagree across ranks or episodes", bad, total))
		}
		if ref == nil {
			ref = e.digests[0]
			out.wireBytes = float64(e.report.TotalBytesRecv()) / float64(total)
			if w.replay {
				out.alphaBetaMs = modelMs(e.report, total)
			} else { // simnet's clock is the α-β model's exact time
				out.alphaBetaMs = e.report.Time / float64(total) * 1e3
			}
			out.finalLoss = w.undeliveredLoss(g, e.cum)
		}
		out.record(p, e.setup, e.steps, e.traces, &e.mem)
		return true
	}

	schedule(o, out, runOne)

	if w.replay && ref != nil && out.failed == 0 {
		e, err := w.episode(spardl.SimBackend(spardl.Ethernet), factory, g, false, false)
		out.attempted += total
		if err != nil {
			out.fail(total, fmt.Errorf("simnet replay: %w", err))
		} else if bad := e.failedSteps(ref); bad > 0 {
			out.fail(bad, fmt.Errorf("simnet replay: %d of %d steps differ from the live backend", bad, total))
		}
	}
	return out
}
