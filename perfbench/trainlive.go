package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"spardl"
	"spardl/internal/comm"
	"spardl/internal/nn"
)

// trainLive is spardl.Train on livenet: case 7 (BERT-like), P=4, k/n=1%,
// default SparDL options, no interior evaluation. Model forward and
// backward take most of a step; the reduce takes the rest.
var trainLive = trainWorkload{caseID: 7, p: 4, density: 0.01, warmup: 2, steps: 20, evalBatch: 64}

// trainWorkload is a training session of one case, with warmup untimed
// and steps timed iterations per episode.
type trainWorkload struct {
	caseID        int
	p             int
	density       float64 // k/n
	warmup, steps int
	evalBatch     int
}

// trainEpisode is one training session: set-up, warm-up, timed steps.
type trainEpisode struct {
	setup     time.Duration
	steps     []time.Duration
	finalLoss float64
	params    []uint64 // digest of each rank's final parameters
	report    *comm.Report
	traces    []*rankTrace // nil when untraced
	mem       [2]runtime.MemStats
}

// stampBackend wraps a Backend so that rank 0's endpoint records a
// timestamp each time SyncClock returns — the step boundary of the
// training loop — and keeps the run's report. It adds nothing else to the
// untraced run.
type stampBackend struct {
	inner  comm.Backend
	stamps []time.Time
	report *comm.Report
}

func (b *stampBackend) Name() string { return b.inner.Name() }

func (b *stampBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	b.report = b.inner.Run(p, func(rank int, ep comm.Endpoint) {
		if rank == 0 {
			ep = &stampEndpoint{Endpoint: ep, stamps: b.stamps}
		}
		worker(rank, ep)
	})
	return b.report
}

type stampEndpoint struct {
	comm.Endpoint
	stamps []time.Time
	n      int
}

func (s *stampEndpoint) SyncClock() {
	s.Endpoint.SyncClock()
	if s.n < len(s.stamps) {
		s.stamps[s.n] = time.Now()
	}
	s.n++
}

// stepDurations turns step-boundary stamps into the timed steps' lengths.
func stepDurations(stamps []time.Time, warmup int) []time.Duration {
	d := make([]time.Duration, len(stamps)-warmup)
	for i := range d {
		d[i] = stamps[warmup+i].Sub(stamps[warmup+i-1])
	}
	return d
}

// paramDigest hashes a model's parameters.
func paramDigest(params []*nn.Tensor) uint64 {
	var flat []float32
	for _, t := range params {
		flat = append(flat, t.Data...)
	}
	return digest(flat)
}

// config is the workload's spardl.Train configuration.
func (w trainWorkload) config(seed int64) spardl.TrainConfig {
	return spardl.TrainConfig{
		Case: spardl.CaseByID(w.caseID), P: w.p, KRatio: w.density,
		Factory: spardl.NewFactory(spardl.Options{}),
		Iters:   w.warmup + w.steps, Seed: seed, EvalEvery: 0, EvalBatch: w.evalBatch,
	}
}

// trainEpisode runs spardl.Train once over backend. The case's model
// constructor and the reducer factory are wrapped so the benchmark can
// timestamp the end of set-up (every rank's reducer built, which the
// trainer does after the model and dataset) and digest the final
// parameters of every replica afterwards.
func (w trainWorkload) episode(seed int64, backend comm.Backend) (e *trainEpisode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training failed: %v", r)
		}
	}()
	cfg := w.config(seed)
	base := cfg.Case
	c := *base
	var mu sync.Mutex
	var models []nn.Model // the trainer's probe model first, then one per rank
	c.NewModel = func(s int64) nn.Model {
		m := base.NewModel(s)
		mu.Lock()
		models = append(models, m)
		mu.Unlock()
		return m
	}
	cfg.Case = &c
	built := make([]time.Time, w.p)
	factory := cfg.Factory
	cfg.Factory = func(p, rank, n, k int) spardl.Reducer {
		r := factory(p, rank, n, k)
		built[rank] = time.Now()
		return r
	}
	sb := &stampBackend{inner: backend, stamps: make([]time.Time, cfg.Iters)}
	cfg.Backend = sb

	start := time.Now()
	res := spardl.Train(cfg)
	e = &trainEpisode{finalLoss: res.FinalLoss, report: sb.report, steps: stepDurations(sb.stamps, w.warmup)}
	for _, t := range built {
		e.setup = max(e.setup, t.Sub(start))
	}
	for _, m := range models[1:] {
		e.params = append(e.params, paramDigest(m.Params()))
	}
	return e, nil
}

// replica drives the trainer's monolithic iteration from this
// file, timing each call into a layer: ZeroGrads, Loss, Backward,
// FlattenGrads, Compute, ReduceInto, scale, SGD.Step, SyncClock. It must
// reproduce spardl.Train's final loss bit for bit, which the caller checks
// before trusting its per-layer numbers.
func (w trainWorkload) replica(seed int64) (e *trainEpisode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced training failed: %v", r)
		}
	}()
	cfg := w.config(seed)
	c := cfg.Case
	n := nn.ParamCount(c.NewModel(seed).Params())
	k := min(max(int(cfg.KRatio*float64(n)), 1), n)
	evalData := c.NewData(seed)
	stamps := make([]time.Time, cfg.Iters)
	e = &trainEpisode{params: make([]uint64, w.p), traces: make([]*rankTrace, w.p)}
	for r := range e.traces {
		e.traces[r] = newRankTrace(w.steps)
	}
	e.report = spardl.LiveBackend().Run(w.p, func(rank int, raw comm.Endpoint) {
		rt := e.traces[rank]
		ep := &tracedEndpoint{ep: raw, rt: rt}
		model := c.NewModel(seed)
		params := model.Params()
		ds := c.NewData(seed)
		opt := nn.NewSGD(c.LR, c.Momentum)
		flat := make([]float32, n)
		global := make([]float32, n)
		invP := float32(1) / float32(w.p)
		red := cfg.Factory(w.p, rank, n, k)
		for it := 0; it < cfg.Iters; it++ {
			i := it - w.warmup
			if i == 0 {
				rt.reset()
				rt.statsStart = raw.Stats()
				if rank == 0 {
					runtime.ReadMemStats(&e.mem[0])
				}
			}
			t := time.Now()
			batch := ds.TrainBatch(rank, it, c.BatchSize)
			rt.since(spanBatch, t)
			t = time.Now()
			nn.ZeroGrads(params)
			rt.since(spanZero, t)
			t = time.Now()
			loss, _ := model.Loss(batch)
			rt.since(spanForward, t)
			t = time.Now()
			loss.Backward()
			rt.since(spanBackward, t)
			t = time.Now()
			nn.FlattenGrads(params, flat)
			rt.since(spanFlatten, t)
			ep.Compute(c.ComputeTime)
			t, before := time.Now(), rt.inEndpoint
			spardl.ReduceInto(red, ep, flat, global)
			rt.endReduce(i, t, before)
			t = time.Now()
			for j := range global {
				global[j] *= invP
			}
			rt.since(spanScale, t)
			t = time.Now()
			opt.Step(params, global)
			rt.since(spanSGD, t)
			ep.SyncClock()
			if rank == 0 {
				stamps[it] = time.Now()
			}
		}
		rt.statsEnd = raw.Stats()
		if rank == 0 {
			runtime.ReadMemStats(&e.mem[1])
			loss, _ := model.Loss(evalData.EvalBatch(cfg.EvalBatch))
			e.finalLoss = float64(loss.Data[0])
		}
		e.params[rank] = paramDigest(params)
	})
	e.steps = stepDurations(stamps, w.warmup)
	return e, nil
}

// run measures the workload for o.seconds. Every episode must
// end with identical parameters on all ranks and the same final loss as
// the first; the first is replayed on simnet, which must reach the same
// loss. The traced replica must match spardl.Train's loss and parameters.
func (w trainWorkload) run(o options) *outcome {
	total := w.warmup + w.steps
	out := &outcome{}
	var ref *trainEpisode

	check := func(e *trainEpisode, what string) {
		for r, d := range e.params {
			if d != e.params[0] {
				out.fail(total, fmt.Errorf("%s: rank %d final parameters differ from rank 0's", what, r))
				return
			}
		}
		if ref != nil && (e.finalLoss != ref.finalLoss || e.params[0] != ref.params[0]) {
			out.fail(total, fmt.Errorf("%s: final loss %v / parameters differ from spardl.Train's %v", what, e.finalLoss, ref.finalLoss))
		}
	}

	runOne := func(p phase) bool {
		runtime.GC()
		var e *trainEpisode
		var err error
		what := "spardl.Train on livenet"
		if p == traced {
			e, err = w.replica(o.seed)
			what = "traced replica"
		} else {
			e, err = w.episode(o.seed, spardl.LiveBackend())
		}
		out.attempted += total
		if err != nil {
			out.fail(total, err)
			return false
		}
		check(e, what)
		if ref == nil {
			ref = e
			out.wireBytes = float64(e.report.TotalBytesRecv()) / float64(total)
			out.alphaBetaMs = modelMs(e.report, total)
			out.finalLoss = e.finalLoss
		}
		out.record(p, e.setup, e.steps, e.traces, &e.mem)
		return true
	}

	schedule(o, out, runOne)

	if ref != nil && out.failed == 0 {
		e, err := w.episode(o.seed, spardl.SimBackend(spardl.Ethernet))
		out.attempted += total
		if err != nil {
			out.fail(total, fmt.Errorf("simnet replay: %w", err))
		} else {
			check(e, "simnet replay")
		}
	}
	return out
}
