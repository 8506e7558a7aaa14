package train

import (
	"fmt"
	"sync"
	"time"

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
// It panics on an invalid config.
func Run(cfg Config) *Result {
	s, err := newSession(cfg, false)
	if err != nil {
		panic(err)
	}
	backend := cfg.Backend
	if backend == nil {
		network := cfg.Network
		if cfg.PaperScaleComm && cfg.Case.PaperParams > 0 {
			network.Beta *= float64(cfg.Case.PaperParams) / float64(s.n)
		}
		backend = simnet.Backend(network)
	}
	backend.Run(cfg.P, func(rank int, ep comm.Endpoint) {
		s.worker(comm.Membership{ID: rank, Rank: rank, P: cfg.P}, ep)
	})
	return s.result()
}

// session is one training run shared by its workers: the problem size,
// rank 0's result, every worker's per-iteration cost records and the
// per-worker state a worker body picks up again when it re-enters after
// an elastic re-rendezvous.
type session struct {
	cfg      Config
	n, k     int
	elastic  bool // snapshot every iteration and restore on re-entry
	evalData data.Dataset
	replicas []*replica   // by worker ID
	stats    [][]iterStat // [worker ID][iteration]

	mu        sync.Mutex // guards res and recovered
	res       *Result
	recovered map[int]RecoveryStat // by generation; RunElastic adds the Recovery
}

// replica is one worker's state that outlives a fabric generation, keyed
// by stable worker ID. The snapshot ring is filled only in elastic runs.
type replica struct {
	model    nn.Model
	opt      *nn.SGD
	barriers int // SyncClock barriers passed — the resume candidate
	snaps    [3]snap
	haveSnap [3]bool
}

// iterStat is one worker's cost record for one completed iteration.
type iterStat struct {
	gen            int // fabric generation that completed the iteration
	comm, comp     float64
	exposed, saved float64
	rounds         int
	bytes          int64
}

// newSession checks cfg and fills in its defaults — the one config step
// Run and RunElastic share — and sizes the problem from a probe model.
func newSession(cfg Config, elastic bool) (*session, error) {
	if cfg.Case == nil || cfg.P < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("train: incomplete config")
	}
	if cfg.ComputeSkew != nil && len(cfg.ComputeSkew) != cfg.P {
		return nil, fmt.Errorf("train: ComputeSkew has %d entries for P=%d workers", len(cfg.ComputeSkew), cfg.P)
	}
	if cfg.EvalBatch == 0 {
		cfg.EvalBatch = 256
		if cfg.Case.ID >= 5 {
			cfg.EvalBatch = 64
		}
	}
	n := nn.ParamCount(cfg.Case.NewModel(cfg.Seed).Params())
	k := min(max(int(cfg.KRatio*float64(n)), 1), n)
	s := &session{
		cfg: cfg, n: n, k: k, elastic: elastic,
		evalData:  cfg.Case.NewData(cfg.Seed),
		replicas:  make([]*replica, cfg.P),
		stats:     make([][]iterStat, cfg.P),
		res:       &Result{N: n, K: k},
		recovered: map[int]RecoveryStat{},
	}
	for w := range s.stats {
		s.stats[w] = make([]iterStat, cfg.Iters)
	}
	return s, nil
}

// worker is the one training body: it runs iterations from wherever the
// worker's carried state resumes (0 on a first entry) to cfg.Iters. Under
// RunElastic a worker re-enters it after every re-rendezvous with the
// shrunk membership; Run enters it once per rank with ID = Rank.
func (s *session) worker(m comm.Membership, ep comm.Endpoint) {
	genStart := time.Now()
	cfg, c := s.cfg, s.cfg.Case
	st := s.replicas[m.ID]
	if st == nil {
		st = &replica{
			model: c.NewModel(cfg.Seed), // same seed ⇒ identical replicas
			opt:   nn.NewSGD(c.LR, c.Momentum),
		}
		s.replicas[m.ID] = st
	}
	ds := c.NewData(cfg.Seed)
	resume := 0
	var restored *snap
	if m.Gen > 0 {
		// Survivors' barrier counts can differ by one when the fault
		// hit between a local step and its barrier; one agreement
		// round pins the resume point to the last globally completed
		// iteration on every substrate.
		resume = agreeMinIter(ep, m.P, m.Rank, st.barriers)
		restored = st.restore(c, cfg.Seed, resume)
		st.barriers = resume
	}
	skew := 1.0
	if cfg.ComputeSkew != nil {
		skew = cfg.ComputeSkew[m.ID]
	}

	// Monolithic path: one reducer over the whole flattened gradient.
	// Pipeline path: one SegmentReducer per bucket, launched at each
	// bucket's backward-ready point on the communication stream. Reducers
	// are rebuilt for every generation's membership; bucket plans do not
	// depend on P.
	var reducer sparsecoll.Reducer
	var sched *pipeline.Schedule
	var segs []nn.Segment
	if cfg.Pipeline == nil {
		reducer = cfg.Factory(m.P, m.Rank, s.n, s.k)
	} else {
		segs = nn.GradSegments(st.model.Params())
		ready := nn.GradReadyTimes(st.model.Params(), c.ComputeTime*skew)
		sched = pipeline.NewSchedule(cfg.Factory, m.P, m.Rank, s.k, segs, ready, *cfg.Pipeline)
	}
	var carried []residualSpan
	if s.elastic {
		carried = residualSpans(reducer, sched)
		if restored != nil {
			restored.restoreResiduals(carried)
		}
	}
	if m.Rank == 0 {
		s.mu.Lock()
		if sched == nil {
			s.res.Method = reducer.Name()
		} else {
			s.res.Method, s.res.Buckets = sched.Reducers[0].BaseName(), len(sched.Buckets)
		}
		if m.Gen > 0 {
			s.recovered[m.Gen] = RecoveryStat{ResumeIter: resume}
			// Drop points recorded for iterations now being re-run with
			// the shrunk membership: the old rank 0 can have evaluated
			// iteration `resume` (it passed that barrier locally) even
			// though the fleet as a whole did not.
			for len(s.res.Points) > 0 && s.res.Points[len(s.res.Points)-1].Iter > resume {
				s.res.Points = s.res.Points[:len(s.res.Points)-1]
			}
		}
		s.mu.Unlock()
	}

	flat := make([]float32, s.n)
	global := make([]float32, s.n)
	invP := float32(1) / float32(m.P)
	for it := resume; it < cfg.Iters; it++ {
		batch := ds.TrainBatch(m.Rank, it, c.BatchSize)
		nn.ZeroGrads(st.model.Params())
		loss, _ := st.model.Loss(batch)
		loss.Backward()

		before := ep.Stats()
		if sched == nil {
			nn.FlattenGrads(st.model.Params(), flat)
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
		st.opt.Step(st.model.Params(), global)
		if s.elastic {
			st.snapshot(it, carried, s.n)
		}

		rec := iterStat{
			gen: m.Gen,
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
			rec.exposed = rec.comm + (rec.comp - c.ComputeTime*skew)
		}
		ep.SyncClock() // may panic mid-recovery; nothing commits before it
		s.stats[m.ID][it] = rec
		st.barriers = it + 1

		if it == resume && m.Gen > 0 && m.Rank == 0 {
			s.mu.Lock()
			r := s.recovered[m.Gen]
			r.FirstRoundSeconds = time.Since(genStart).Seconds()
			s.recovered[m.Gen] = r
			s.mu.Unlock()
		}
		if m.Rank == 0 && cfg.EvalEvery > 0 && (it+1)%cfg.EvalEvery == 0 {
			p := evalPoint(st.model, s.evalData, cfg, it+1, ep.Clock())
			s.mu.Lock()
			s.res.Points = append(s.res.Points, p)
			s.mu.Unlock()
		}
	}
	if m.Rank == 0 {
		p := evalPoint(st.model, s.evalData, cfg, cfg.Iters, ep.Clock())
		s.mu.Lock()
		if len(s.res.Points) == 0 || s.res.Points[len(s.res.Points)-1].Iter != cfg.Iters {
			s.res.Points = append(s.res.Points, p)
		}
		s.res.FinalMetric = p.Metric
		s.res.FinalLoss = p.Loss
		s.res.TotalTime = ep.Clock()
		s.mu.Unlock()
	}
}

// result fills in the per-iteration worst-worker cost averages. Each
// iteration counts only the records of the latest generation that
// completed it: after a recovery the re-run iterations replace the
// survivors' earlier records, and a departed worker's stale ones are left
// out. A record no worker wrote is all zero and cannot raise a maximum.
func (s *session) result() *Result {
	var sum iterStat
	maxRounds := 0
	for it := 0; it < s.cfg.Iters; it++ {
		latest := 0
		for w := range s.stats {
			latest = max(latest, s.stats[w][it].gen)
		}
		var worst iterStat
		for w := range s.stats {
			r := s.stats[w][it]
			if r.gen != latest {
				continue
			}
			worst.comm = max(worst.comm, r.comm)
			worst.comp = max(worst.comp, r.comp)
			worst.exposed = max(worst.exposed, r.exposed)
			worst.saved = max(worst.saved, r.saved)
			worst.bytes = max(worst.bytes, r.bytes)
			maxRounds = max(maxRounds, r.rounds)
		}
		sum.comm += worst.comm
		sum.comp += worst.comp
		sum.exposed += worst.exposed
		sum.saved += worst.saved
		sum.bytes += worst.bytes
	}
	res, iters := s.res, float64(s.cfg.Iters)
	res.CommTime = sum.comm / iters
	res.CompTime = sum.comp / iters
	res.ExposedComm = sum.exposed / iters
	res.OverlapSaved = sum.saved / iters
	res.PerUpdateTime = res.TotalTime / iters
	res.MaxRounds = maxRounds
	res.BytesPerIter = sum.bytes / int64(s.cfg.Iters)
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
