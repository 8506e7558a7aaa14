package tcpnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// LocalBackend returns a comm.Backend that runs P tcpnet workers as
// goroutines of this one process, each with its own endpoint over real
// loopback TCP sockets. The transport cannot tell goroutines from
// processes — every byte still crosses the kernel through a genuine
// socket pair — so this is the single-command way to measure the socket
// data path (spardl-bench -tcp-baseline) or exercise it under the race
// detector without forking worker processes. timeout bounds rendezvous,
// mesh establishment and graceful close; zero means the package default.
func LocalBackend(timeout time.Duration) comm.Backend { return localBackend{timeout: timeout} }

// LocalChaosBackend is LocalBackend with a deterministic fault schedule:
// every worker goroutine's outbound streams run through a chaosConn driven
// by its injector, and scheduled crashes kill the worker at the named
// barrier. Replays with the same schedule are bit-identical, and the same
// schedule replays identically over in-memory pipes — the chaos suite
// pins it.
func LocalChaosBackend(timeout time.Duration, sched *chaos.Schedule) comm.Backend {
	return localBackend{timeout: timeout, sched: sched}
}

// MemBackend returns the in-process byte-level backend, named "livenet":
// P endpoints as goroutines of this process, meshed over in-memory pipes
// instead of sockets. Everything above the connection — frames, receive
// arenas, chaosConn, crash, Close and Abort — is the socket code path.
// sched replays a deterministic fault schedule; nil runs healthy.
func MemBackend(sched *chaos.Schedule) comm.Backend { return localBackend{sched: sched, mem: true} }

type localBackend struct {
	timeout time.Duration
	sched   *chaos.Schedule
	mem     bool // mesh over in-memory pipes instead of loopback sockets
}

// Name implements comm.Backend.
func (b localBackend) Name() string {
	if b.mem {
		return "livenet"
	}
	return "tcpnet-local"
}

// Run implements comm.Backend: one generation of the shared driver over
// the full membership. A worker panic aborts its endpoint — closing the
// connections unblocks remote peers exactly as a process crash would — and
// Run re-panics with the generation's root cause once all workers have
// unwound.
func (b localBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	members, injs := b.fleet(p)
	rep, _, cause := b.runGeneration(0, members, nil, injs, func(m comm.Membership, ep comm.Endpoint) {
		worker(m.Rank, ep)
	})
	if cause != "" {
		panic(cause)
	}
	return rep
}

var _ comm.ElasticBackend = localBackend{}

// RunElastic implements comm.ElasticBackend: each generation runs the
// surviving membership on a fresh mesh through runGeneration. Worker state
// (the trainer's snapshots, the injectors' per-link frame counters) is
// keyed by stable generation-0 ID and carried across generations, so a
// one-shot fault never re-fires. A scheduled crash (chaos.Crashed) shrinks
// the membership; any other poison retries at full strength; MinP and
// MaxRestarts bound both, and fail-fast errors name the generation's root
// cause.
func (b localBackend) RunElastic(p int, opts comm.ElasticOptions, worker comm.ElasticWorker) (*comm.Report, []comm.Recovery, error) {
	minP := opts.MinP
	if minP <= 0 {
		minP = 1
	}
	maxRestarts := opts.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1
	}
	members, injs := b.fleet(p)
	var (
		recoveries []comm.Recovery
		lost       []int
		restarts   int
	)
	for gen := 0; ; gen++ {
		rep, res, cause := b.runGeneration(gen, members, lost, injs, worker)
		if cause == "" {
			return rep, recoveries, nil
		}
		t0 := time.Now()
		var departed, survivors []int
		for rank, id := range members {
			if res[rank] != nil && chaos.IsCrashed(res[rank]) {
				departed = append(departed, id)
			} else {
				survivors = append(survivors, id)
			}
		}
		if len(survivors) < minP {
			return nil, recoveries, fmt.Errorf("tcpnet: %d survivors is below MinP=%d; root cause: %s", len(survivors), minP, cause)
		}
		if restarts >= maxRestarts {
			return nil, recoveries, fmt.Errorf("tcpnet: giving up after %d re-rendezvous; root cause: %s", restarts, cause)
		}
		restarts++
		members = survivors
		lost = append(lost, departed...)
		sort.Ints(lost)
		recoveries = append(recoveries, comm.Recovery{
			Gen:           gen + 1,
			P:             len(members),
			Lost:          departed,
			Cause:         cause,
			RejoinSeconds: time.Since(t0).Seconds(),
		})
	}
}

// fleet returns the generation-0 membership — stable IDs 0..p-1 — and each
// ID's injector for the backend's schedule (nil when healthy).
func (b localBackend) fleet(p int) ([]int, map[int]chaos.Injector) {
	members := make([]int, p)
	injs := make(map[int]chaos.Injector, p)
	for i := range members {
		members[i] = i
		injs[i] = b.sched.Worker(i)
	}
	return members, injs
}

// runGeneration runs one membership on a fresh mesh — loopback sockets or
// in-memory pipes — and is the only per-generation driver. It returns the
// aggregated report, or the per-rank recovered panics and the root cause
// when the generation poisoned. Ranks are indices into members (ascending
// stable ID), so the lowest surviving ID is always rank 0.
func (b localBackend) runGeneration(gen int, members, lost []int, injs map[int]chaos.Injector, worker comm.ElasticWorker) (*comm.Report, []any, string) {
	p := len(members)
	timeout := b.timeout
	if timeout <= 0 {
		timeout = defaultTimeout()
	}
	cfgs := make([]Config, p)
	for rank, id := range members {
		cfgs[rank] = Config{P: p, Rank: rank, Timeout: timeout, Gen: gen, IDs: members, Injector: injs[id]}
	}
	start := func(rank int) (*Endpoint, error) { return Start(cfgs[rank]) }
	if b.mem {
		meshed := pipeMesh(cfgs)
		start = func(rank int) (*Endpoint, error) { return meshed[rank], nil }
	} else {
		addr, err := ReserveLoopbackAddr()
		if err != nil {
			panic(fmt.Sprintf("tcpnet: reserving rendezvous address: %v", err))
		}
		for i := range cfgs {
			cfgs[i].Rendezvous = addr
		}
	}

	// first keeps the earliest failure in time. Workers and endpoint aborts
	// record into it before severing anything, so the poisoned-fabric
	// panics an abort provokes in peers never precede the root cause.
	var first firstFault
	eps := make([]*Endpoint, p)
	res := make([]any, p)
	clocks := make([]float64, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// One deferred handler ordering record → Abort → Close: the
			// abort must run before the graceful close, or Close's drain
			// would stall its full timeout against a poisoned mesh.
			defer func() {
				r := recover()
				if r != nil {
					res[rank] = r
					first.abort(eps[rank], fmt.Sprintf("worker %d: %v", members[rank], r))
				}
				if ep := eps[rank]; ep != nil {
					ep.Close()
				}
			}()
			ep, err := start(rank)
			if err != nil {
				panic(err)
			}
			ep.recordCause = first.record
			eps[rank] = ep
			worker(comm.Membership{Gen: gen, P: p, Rank: rank, ID: members[rank], Lost: append([]int(nil), lost...)}, ep)
			clocks[rank] = ep.Clock()
		}(rank)
	}
	wg.Wait()

	// Root cause, deterministically where the schedule decides: a
	// scheduled crash first, then a scheduled link fault, then — for
	// genuine bugs — the first failure in time. Crashes and severed links
	// provoke cascades whose order races; schedule entries do not.
	cause := ""
	for rank, r := range res {
		if r != nil && chaos.IsCrashed(r) {
			cause = fmt.Sprintf("worker %d: %v", members[rank], r)
			break
		}
	}
	for rank := 0; cause == "" && rank < p; rank++ {
		if ep := eps[rank]; ep != nil {
			if c := ep.ChaosCause(); c != "" {
				cause = fmt.Sprintf("worker %d: %s", members[rank], c)
			}
		}
	}
	if cause == "" {
		cause = first.get()
	}
	if cause != "" {
		return nil, res, cause
	}
	rep := &comm.Report{PerWorker: make([]comm.Stats, p), Clocks: clocks}
	for i, ep := range eps {
		rep.PerWorker[i] = ep.Stats()
		if clocks[i] > rep.Time {
			rep.Time = clocks[i]
		}
	}
	return rep, res, ""
}

// firstFault keeps the first failure cause recorded across one
// generation's workers and endpoints (first writer wins).
type firstFault struct {
	mu    sync.Mutex
	cause string
}

func (f *firstFault) record(cause string) {
	f.mu.Lock()
	if f.cause == "" {
		f.cause = cause
	}
	f.mu.Unlock()
}

func (f *firstFault) get() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cause
}

// abort records a failed worker's cause, then aborts its endpoint, if the
// worker got one: closing the connections unblocks its peers.
func (f *firstFault) abort(ep *Endpoint, cause string) {
	f.record(cause)
	if ep != nil {
		ep.Abort(cause)
	}
}
