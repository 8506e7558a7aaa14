package train

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/data"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// Config describes one distributed training run.
type Config struct {
	Case    *Case
	P       int     // number of workers
	KRatio  float64 // k/n density (the paper's sparsification knob); 1 = dense k
	Network simnet.Profile
	Factory sparsecoll.Factory
	Iters   int
	Seed    int64
	// EvalEvery controls metric sampling (iterations); 0 disables interior
	// evaluation and records only the final point.
	EvalEvery int
	// EvalBatch is the held-out batch size (default 256 for dense tasks,
	// 64 for sequence tasks).
	EvalBatch int
	// Backend selects the communication substrate the workers run on.
	// nil (the default) uses the α-β simulator with the Network profile;
	// tcpnet.MemBackend (in-memory pipes) or tcpnet.LocalBackend
	// (loopback sockets) runs the same iterations over a real concurrent
	// byte-level transport, in which case every time-valued result field
	// except CompTime holds measured wall seconds and Network is ignored;
	// CompTime stays the modeled compute charge on every backend.
	Backend comm.Backend
	// ComputeSkew optionally assigns per-worker compute-speed multipliers
	// (len P) to model a heterogeneous cluster — the paper's future-work
	// extension (Section VI): synchronous all-reduce waits for the slowest
	// worker, so skew>1 stragglers stretch every iteration.
	ComputeSkew []float64
	// PaperScaleComm scales the network's β by PaperParams/n, so that the
	// communication cost of synchronizing the scaled stand-in model matches
	// the paper-scale model exactly (the co-scaling argument of DESIGN.md
	// §2: all α-vs-β·n trade-offs are preserved). The convergence
	// experiments enable this; without it the stand-in's small gradients
	// make communication unrealistically cheap next to ComputeTime.
	PaperScaleComm bool
	// Elastic opts the run into elastic membership: instead of failing fast
	// on a poisoned fabric, survivors re-rendezvous, restore the last
	// barrier-consistent snapshot (params, momentum, residual), and resume
	// the synchronous rounds with the shrunk membership — see RunElastic.
	// nil keeps the fail-fast contract. Requires a Backend implementing
	// comm.ElasticBackend; ignored by plain Run.
	Elastic *ElasticConfig
	// Pipeline enables layer-wise bucketed synchronization: gradients are
	// fused into buckets (pipeline.Config.BucketBytes) that launch their
	// sparse all-reduce on the communication stream as soon as their
	// backward slices finish, overlapping communication with the remaining
	// backward compute. nil keeps the monolithic schedule. A single bucket
	// spanning the whole model reproduces the monolithic path bit for bit
	// (same top-k, same update, same virtual time).
	Pipeline *pipeline.Config
}

// Point is one sample of the training trajectory.
type Point struct {
	Iter   int
	Time   float64 // virtual seconds since training start
	Loss   float64 // held-out loss
	Metric float64 // held-out accuracy (classification) or loss (others)
}

// Result summarizes a run.
type Result struct {
	Method      string
	N, K        int
	Points      []Point
	FinalMetric float64
	FinalLoss   float64
	// Per-iteration averages of the virtual-time components, taken over
	// the worst worker per iteration.
	PerUpdateTime float64
	CommTime      float64
	CompTime      float64
	TotalTime     float64
	MaxRounds     int // per iteration, worst worker
	BytesPerIter  int64
	// ExposedComm is the per-iteration synchronization time that actually
	// delayed the worst worker — α-β charges plus the in-collective
	// selection/merge compute. With the pipeline it is what outlived the
	// overlapping backward pass; on serialized schedules (Pipeline nil or
	// NoOverlap) the whole synchronization is exposed. OverlapSaved is the
	// per-iteration clock time the pipeline hid under compute (zero when
	// serialized); serialized − pipelined ≡ OverlapSaved per worker and
	// iteration.
	ExposedComm  float64
	OverlapSaved float64
	// Buckets is the pipeline's bucket count (0 on the monolithic path).
	Buckets int
}

// Run executes the distributed training session and returns worker 0's view
// of the trajectory. All randomness is derived from cfg.Seed, so runs are
// exactly reproducible; replicas are verified to stay identical by tests.
func Run(cfg Config) *Result {
	if cfg.Case == nil || cfg.P < 1 || cfg.Iters < 1 {
		panic("train: incomplete config")
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

	network := cfg.Network
	if cfg.PaperScaleComm && c.PaperParams > 0 {
		network.Beta *= float64(c.PaperParams) / float64(n)
	}

	res := &Result{N: n, K: k}
	evalData := c.NewData(cfg.Seed)

	type iterStat struct {
		comm, comp, clock float64
		exposed, saved    float64
		rounds            int
		bytes             int64
	}
	stats := make([][]iterStat, cfg.P)
	for w := range stats {
		stats[w] = make([]iterStat, cfg.Iters)
	}

	backend := cfg.Backend
	if backend == nil {
		backend = simnet.Backend(network)
	}
	backend.Run(cfg.P, func(rank int, ep comm.Endpoint) {
		model := c.NewModel(cfg.Seed) // same seed ⇒ identical replicas
		ds := c.NewData(cfg.Seed)
		opt := nn.NewSGD(c.LR, c.Momentum)
		flat := make([]float32, n)
		invP := float32(1) / float32(cfg.P)
		skew := 1.0
		if cfg.ComputeSkew != nil {
			skew = cfg.ComputeSkew[rank]
		}

		// Monolithic path: one reducer over the whole flattened gradient.
		// Pipeline path: one SegmentReducer per bucket, launched at each
		// bucket's backward-ready point on the communication stream.
		var reducer sparsecoll.Reducer
		var sched *pipeline.Schedule
		var segs []nn.Segment
		var global []float32
		if cfg.Pipeline == nil {
			reducer = cfg.Factory(cfg.P, rank, n, k)
			global = make([]float32, n)
			if rank == 0 {
				res.Method = reducer.Name()
			}
		} else {
			segs = nn.GradSegments(model.Params())
			ready := nn.GradReadyTimes(model.Params(), c.ComputeTime*skew)
			sched = pipeline.NewSchedule(cfg.Factory, cfg.P, rank, k, segs, ready, *cfg.Pipeline)
			global = make([]float32, n)
			if rank == 0 {
				res.Method = sched.Reducers[0].BaseName()
				res.Buckets = len(sched.Buckets)
			}
		}

		for it := 0; it < cfg.Iters; it++ {
			batch := ds.TrainBatch(rank, it, c.BatchSize)
			nn.ZeroGrads(model.Params())
			loss, _ := model.Loss(batch)
			loss.Backward()

			before := ep.Stats()
			if sched == nil {
				nn.FlattenGrads(model.Params(), flat)
				ep.Compute(c.ComputeTime * skew) // simulated forward+backward time
				// In-place synchronization into the per-worker result
				// vector: the reduce pipeline allocates nothing at steady
				// state (arena chunks + persistent dense scratch).
				sparsecoll.ReduceInto(reducer, ep, flat, global)
			} else {
				// Schedule.Run charges the forward+backward compute itself,
				// bucket by bucket, overlapping each bucket's all-reduce
				// with the compute still ahead of it.
				sched.Run(ep, segs, flat, global)
			}
			after := ep.Stats()

			for i := range global {
				global[i] *= invP
			}
			opt.Step(model.Params(), global)

			stats[rank][it] = iterStat{
				// CompTime already includes the model compute: both paths
				// charge it through ep.Compute after `before` was taken.
				comm:    after.CommTime - before.CommTime,
				comp:    after.CompTime - before.CompTime,
				exposed: after.ExposedComm - before.ExposedComm,
				saved:   after.OverlapSaved - before.OverlapSaved,
				rounds:  after.Rounds - before.Rounds,
				bytes:   after.BytesRecv - before.BytesRecv,
			}
			if sched == nil || cfg.Pipeline.NoOverlap {
				// Serialized synchronization is exposed in full: the α-β
				// charges plus the in-collective selection/merge compute —
				// the same constituents the overlap stream hides or exposes.
				stats[rank][it].exposed = stats[rank][it].comm +
					(stats[rank][it].comp - c.ComputeTime*skew)
			}
			ep.SyncClock()
			stats[rank][it].clock = ep.Clock()

			if rank == 0 && cfg.EvalEvery > 0 && (it+1)%cfg.EvalEvery == 0 {
				res.Points = append(res.Points, evalPoint(model, evalData, cfg, it+1, ep.Clock()))
			}
		}
		if rank == 0 {
			p := evalPoint(model, evalData, cfg, cfg.Iters, ep.Clock())
			if len(res.Points) == 0 || res.Points[len(res.Points)-1].Iter != cfg.Iters {
				res.Points = append(res.Points, p)
			}
			res.FinalMetric = p.Metric
			res.FinalLoss = p.Loss
			res.TotalTime = ep.Clock()
		}
	})

	// Per-iteration worst-worker aggregates.
	var commSum, compSum, exposedSum, savedSum float64
	var bytesSum int64
	maxRounds := 0
	for it := 0; it < cfg.Iters; it++ {
		var worstComm, worstComp, worstExposed, worstSaved float64
		var worstBytes int64
		for w := 0; w < cfg.P; w++ {
			s := stats[w][it]
			if s.comm > worstComm {
				worstComm = s.comm
			}
			if s.comp > worstComp {
				worstComp = s.comp
			}
			if s.exposed > worstExposed {
				worstExposed = s.exposed
			}
			if s.saved > worstSaved {
				worstSaved = s.saved
			}
			if s.bytes > worstBytes {
				worstBytes = s.bytes
			}
			if s.rounds > maxRounds {
				maxRounds = s.rounds
			}
		}
		commSum += worstComm
		compSum += worstComp
		exposedSum += worstExposed
		savedSum += worstSaved
		bytesSum += worstBytes
	}
	res.CommTime = commSum / float64(cfg.Iters)
	res.CompTime = compSum / float64(cfg.Iters)
	res.ExposedComm = exposedSum / float64(cfg.Iters)
	res.OverlapSaved = savedSum / float64(cfg.Iters)
	res.PerUpdateTime = res.TotalTime / float64(cfg.Iters)
	res.MaxRounds = maxRounds
	res.BytesPerIter = bytesSum / int64(cfg.Iters)
	return res
}

func evalPoint(model nn.Model, ds data.Dataset, cfg Config, iter int, clock float64) Point {
	batch := ds.EvalBatch(cfg.EvalBatch)
	loss, metric := model.Loss(batch)
	return Point{Iter: iter, Time: clock, Loss: float64(loss.Data[0]), Metric: metric}
}

// String renders a compact one-line summary for logs. CompTime is the
// modeled compute charge on every backend, so it is labeled as such.
func (r *Result) String() string {
	return fmt.Sprintf("%-22s n=%d k=%d per-update=%.4fs (comm %.4fs, comp %.4fs modeled) final=%.4f",
		r.Method, r.N, r.K, r.PerUpdateTime, r.CommTime, r.CompTime, r.FinalMetric)
}
