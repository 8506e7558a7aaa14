package train

import (
	"fmt"
	"sync"
	"time"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/sparsecoll"
)

// ElasticConfig bounds an elastic training run (Config.Elastic).
type ElasticConfig struct {
	// MinP is the smallest membership worth continuing with (default 1).
	MinP int
	// MaxRestarts bounds re-rendezvous attempts (default 1).
	MaxRestarts int
}

// RecoveryStat is one survived membership change, as seen by the trainer:
// the backend's re-rendezvous record plus the training-level half of the
// recovery latency.
type RecoveryStat struct {
	comm.Recovery
	// ResumeIter is the iteration the survivors agreed to resume from —
	// the last globally completed barrier.
	ResumeIter int
	// FirstRoundSeconds is rank 0's wall-clock time from re-entering the
	// worker body to completing the first post-recovery round; poison →
	// first post-re-rendezvous round ≈ RejoinSeconds + FirstRoundSeconds.
	FirstRoundSeconds float64
}

// snap is one boundary snapshot: the worker's full carried state after
// completing iteration Iter. A ring of three covers every reachable resume
// point — survivors can disagree on the fault barrier by at most one
// iteration, and the agreed minimum steps back one more.
type snap struct {
	Iter     int
	Params   []float32
	Velocity []float32 // nil when the optimizer carries no momentum yet
	Residual []float32 // nil when the method carries no residual
}

// elasticState is one worker's cross-generation carry, keyed by stable ID.
type elasticState struct {
	model    nn.Model
	opt      *nn.SGD
	snaps    [3]snap
	haveSnap [3]bool
	barriers int // SyncClock barriers passed — the resume candidate
}

// RunElastic executes the training session with elastic membership: when
// the fabric poisons, the backend classifies the fault (scheduled crash →
// shrink, transient → retry), survivors re-rendezvous, agree on the resume
// iteration (the minimum of their passed-barrier counts — provably within
// one of each other), restore the matching snapshot, rebuild their reducers
// for the new membership (team counts re-fit, partitions re-derived from
// the new P), and continue. The trajectory it returns is deterministic for
// a given seed, schedule and backend substrate — the chaos suite pins that
// in-memory pipes and loopback sockets produce bit-identical post-shrink
// points.
//
// The departed worker's unsent residual mass leaves with it; everything it
// contributed to completed iterations is already folded into the shared
// model that survivors carry forward.
func RunElastic(cfg Config) (*Result, []RecoveryStat, error) {
	if cfg.Case == nil || cfg.P < 1 || cfg.Iters < 1 {
		return nil, nil, fmt.Errorf("train: incomplete config")
	}
	if cfg.Pipeline != nil {
		return nil, nil, fmt.Errorf("train: elastic membership does not support the pipeline path yet")
	}
	if cfg.Backend == nil {
		return nil, nil, fmt.Errorf("train: elastic membership requires a live backend")
	}
	eb, ok := cfg.Backend.(comm.ElasticBackend)
	if !ok {
		return nil, nil, fmt.Errorf("train: backend %s does not support elastic membership", cfg.Backend.Name())
	}
	opts := comm.ElasticOptions{}
	if cfg.Elastic != nil {
		opts.MinP = cfg.Elastic.MinP
		opts.MaxRestarts = cfg.Elastic.MaxRestarts
	}
	if cfg.EvalBatch == 0 {
		cfg.EvalBatch = 256
		if cfg.Case.ID >= 5 {
			cfg.EvalBatch = 64
		}
	}

	c := cfg.Case
	probe := c.NewModel(cfg.Seed)
	n := nn.ParamCount(probe.Params())
	k := int(cfg.KRatio * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}

	res := &Result{N: n, K: k}
	evalData := c.NewData(cfg.Seed)
	states := make([]*elasticState, cfg.P)

	var mu sync.Mutex // guards res.Points/Method and firstRound across generations
	firstRound := map[int]float64{}
	resumeAt := map[int]int{}

	rep, recoveries, err := eb.RunElastic(cfg.P, opts, func(m comm.Membership, ep comm.Endpoint) {
		genStart := time.Now()
		st := states[m.ID]
		if st == nil {
			st = &elasticState{
				model: c.NewModel(cfg.Seed), // same seed ⇒ identical replicas
				opt:   nn.NewSGD(c.LR, c.Momentum),
			}
			states[m.ID] = st
		}
		ds := c.NewData(cfg.Seed)
		resume := 0
		if m.Gen > 0 {
			// Survivors' barrier counts can differ by one when the fault
			// hit between a local step and its barrier; one agreement
			// round pins the resume point to the last globally completed
			// iteration on every substrate.
			resume = agreeMinIter(ep, m.P, m.Rank, st.barriers)
		}

		reducer := cfg.Factory(m.P, m.Rank, n, k)
		if m.Gen > 0 {
			st.restore(c, cfg.Seed, resume, reducer)
			st.barriers = resume
		}
		if m.Rank == 0 {
			mu.Lock()
			res.Method = reducer.Name()
			if m.Gen > 0 {
				resumeAt[m.Gen] = resume
				// Drop points recorded for iterations now being re-run
				// with the shrunk membership: the old rank 0 can have
				// evaluated iteration `resume` (it passed that barrier
				// locally) even though the fleet as a whole did not.
				for len(res.Points) > 0 && res.Points[len(res.Points)-1].Iter > resume {
					res.Points = res.Points[:len(res.Points)-1]
				}
			}
			mu.Unlock()
		}

		flat := make([]float32, n)
		global := make([]float32, n)
		invP := float32(1) / float32(m.P)
		skew := 1.0
		if cfg.ComputeSkew != nil {
			skew = cfg.ComputeSkew[m.ID]
		}

		for it := resume; it < cfg.Iters; it++ {
			batch := ds.TrainBatch(m.Rank, it, c.BatchSize)
			nn.ZeroGrads(st.model.Params())
			loss, _ := st.model.Loss(batch)
			loss.Backward()
			nn.FlattenGrads(st.model.Params(), flat)
			ep.Compute(c.ComputeTime * skew)
			sparsecoll.ReduceInto(reducer, ep, flat, global)
			for i := range global {
				global[i] *= invP
			}
			st.opt.Step(st.model.Params(), global)
			st.snapshot(it, reducer, n)
			ep.SyncClock() // may panic mid-recovery; st commits only past here
			st.barriers = it + 1

			if it == resume && m.Gen > 0 && m.Rank == 0 {
				mu.Lock()
				firstRound[m.Gen] = time.Since(genStart).Seconds()
				mu.Unlock()
			}
			if m.Rank == 0 && cfg.EvalEvery > 0 && (it+1)%cfg.EvalEvery == 0 {
				p := evalPoint(st.model, evalData, cfg, it+1, ep.Clock())
				mu.Lock()
				res.Points = append(res.Points, p)
				mu.Unlock()
			}
		}
		if m.Rank == 0 {
			p := evalPoint(st.model, evalData, cfg, cfg.Iters, ep.Clock())
			mu.Lock()
			if len(res.Points) == 0 || res.Points[len(res.Points)-1].Iter != cfg.Iters {
				res.Points = append(res.Points, p)
			}
			res.FinalMetric = p.Metric
			res.FinalLoss = p.Loss
			res.TotalTime = ep.Clock()
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, nil, err
	}

	stats := make([]RecoveryStat, len(recoveries))
	for i, r := range recoveries {
		stats[i] = RecoveryStat{Recovery: r, ResumeIter: resumeAt[r.Gen], FirstRoundSeconds: firstRound[r.Gen]}
	}
	if len(rep.PerWorker) > 0 {
		final := rep.PerWorker[0]
		res.CommTime = final.CommTime / float64(cfg.Iters)
		res.CompTime = final.CompTime / float64(cfg.Iters)
		res.PerUpdateTime = res.TotalTime / float64(cfg.Iters)
		res.BytesPerIter = final.BytesRecv / int64(cfg.Iters)
	}
	return res, stats, nil
}

// snapshot stores the boundary state after completing iteration it.
func (st *elasticState) snapshot(it int, reducer sparsecoll.Reducer, n int) {
	s := &st.snaps[it%3]
	s.Iter = it
	if s.Params == nil {
		s.Params = make([]float32, n)
	}
	nn.FlattenParams(st.model.Params(), s.Params)
	if v := st.opt.Velocity(); v != nil {
		if s.Velocity == nil {
			s.Velocity = make([]float32, len(v))
		}
		copy(s.Velocity, v)
	} else {
		s.Velocity = nil
	}
	if rc, ok := reducer.(sparsecoll.ResidualCarrier); ok {
		r := rc.Residual()
		if s.Residual == nil {
			s.Residual = make([]float32, len(r))
		}
		copy(s.Residual, r)
	} else {
		s.Residual = nil
	}
	st.haveSnap[it%3] = true
}

// restore rewinds the carried state to "after completing iteration
// resume−1": either a ring snapshot or, for resume 0, the deterministic
// fresh start.
func (st *elasticState) restore(c *Case, seed int64, resume int, reducer sparsecoll.Reducer) {
	if resume == 0 {
		st.model = c.NewModel(seed)
		st.opt = nn.NewSGD(c.LR, c.Momentum)
		return
	}
	i := (resume - 1) % 3
	s := &st.snaps[i]
	if !st.haveSnap[i] || s.Iter != resume-1 {
		panic(fmt.Sprintf("train: no snapshot for resume iteration %d (ring holds %d)", resume, s.Iter))
	}
	nn.LoadParams(st.model.Params(), s.Params)
	st.opt.RestoreVelocity(s.Velocity)
	if rr, ok := reducer.(sparsecoll.ResidualRestorer); ok && s.Residual != nil {
		rr.RestoreResidual(s.Residual)
	}
}

// agreeMinIter is the post-re-rendezvous agreement round: every survivor
// broadcasts its passed-barrier count and adopts the minimum.
func agreeMinIter(ep comm.Endpoint, p, rank, mine int) int {
	min := mine
	for peer := 0; peer < p; peer++ {
		if peer != rank {
			ep.Send(peer, float64(mine), 8)
		}
	}
	for peer := 0; peer < p; peer++ {
		if peer != rank {
			v, _ := ep.Recv(peer)
			if b := int(v.(float64)); b < min {
				min = b
			}
		}
	}
	return min
}
