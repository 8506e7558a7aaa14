package train

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/sparsecoll"
)

// ElasticConfig bounds an elastic training run (Config.Elastic): MinP is
// the smallest membership worth continuing with and MaxRestarts bounds the
// re-rendezvous attempts (0 means 1 for both).
type ElasticConfig = comm.ElasticOptions

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

// RunElastic executes the training session with elastic membership: when
// the fabric poisons, the backend classifies the fault (scheduled crash →
// shrink, transient → retry), survivors re-rendezvous, agree on the resume
// iteration (the minimum of their passed-barrier counts — provably within
// one of each other), restore the matching snapshot, rebuild their reducers
// for the new membership (team counts re-fit, partitions re-derived from
// the new P), and continue. It runs the same worker body as Run, so the
// pipeline path works too: each bucket's reducer reloads its own range of
// the snapshot's residual. The trajectory it returns is deterministic for
// a given seed, schedule and backend substrate — the chaos suite pins that
// in-memory pipes and loopback sockets produce bit-identical post-shrink
// points.
//
// The departed worker's unsent residual mass leaves with it; everything it
// contributed to completed iterations is already folded into the shared
// model that survivors carry forward.
func RunElastic(cfg Config) (*Result, []RecoveryStat, error) {
	s, err := newSession(cfg, true)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Backend == nil {
		return nil, nil, fmt.Errorf("train: elastic membership requires a live backend")
	}
	eb, ok := cfg.Backend.(comm.ElasticBackend)
	if !ok {
		return nil, nil, fmt.Errorf("train: backend %s does not support elastic membership", cfg.Backend.Name())
	}
	var opts comm.ElasticOptions
	if cfg.Elastic != nil {
		opts = *cfg.Elastic
	}
	_, recoveries, err := eb.RunElastic(cfg.P, opts, s.worker)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]RecoveryStat, len(recoveries))
	for i, r := range recoveries {
		stats[i] = s.recovered[r.Gen]
		stats[i].Recovery = r
	}
	return s.result(), stats, nil
}

// residualSpan is one reducer's residual and the flat-gradient offset it
// starts at: the whole gradient on the monolithic path, one bucket's
// [Lo,Hi) on the pipeline path.
type residualSpan struct {
	lo int
	r  sparsecoll.ResidualRestorer
}

// residualSpans lists the reducers whose residual a snapshot must carry.
func residualSpans(reducer sparsecoll.Reducer, sched *pipeline.Schedule) []residualSpan {
	if sched == nil {
		if r, ok := reducer.(sparsecoll.ResidualRestorer); ok {
			return []residualSpan{{0, r}}
		}
		return nil
	}
	spans := make([]residualSpan, len(sched.Reducers))
	for i, r := range sched.Reducers {
		spans[i] = residualSpan{r.Lo, r}
	}
	return spans
}

// snapshot stores the boundary state after completing iteration it. The
// residual is one n-length vector; each span writes its own range.
func (st *replica) snapshot(it int, spans []residualSpan, n int) {
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
	if len(spans) > 0 && s.Residual == nil {
		s.Residual = make([]float32, n)
	}
	for _, sp := range spans {
		copy(s.Residual[sp.lo:], sp.r.Residual())
	}
	st.haveSnap[it%3] = true
}

// restore rewinds the model and optimizer to "after completing iteration
// resume−1": either a ring snapshot, which it returns so the rebuilt
// reducers can reload its residual, or, for resume 0, the deterministic
// fresh start (nil: fresh reducers carry no residual yet).
func (st *replica) restore(c *Case, seed int64, resume int) *snap {
	if resume == 0 {
		st.model = c.NewModel(seed)
		st.opt = nn.NewSGD(c.LR, c.Momentum)
		return nil
	}
	i := (resume - 1) % 3
	s := &st.snaps[i]
	if !st.haveSnap[i] || s.Iter != resume-1 {
		panic(fmt.Sprintf("train: no snapshot for resume iteration %d (ring holds %d)", resume, s.Iter))
	}
	nn.LoadParams(st.model.Params(), s.Params)
	st.opt.RestoreVelocity(s.Velocity)
	return s
}

// restoreResiduals reloads each span's range of the snapshot residual.
func (s *snap) restoreResiduals(spans []residualSpan) {
	for _, sp := range spans {
		sp.r.RestoreResidual(s.Residual[sp.lo : sp.lo+len(sp.r.Residual())])
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
