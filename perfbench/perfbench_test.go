package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"spardl"
	"spardl/internal/comm"
)

func TestQuantileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	v, n := quantile(xs, 0.5)
	if v != 5.5 || n != 10 {
		t.Errorf("quantile(0.5) = %v over %d samples, want 5.5 over 10", v, n)
	}
	if v, n := quantile(xs, 0.9); math.Abs(v-9.1) > 1e-9 || n != 10 {
		t.Errorf("quantile(0.9) = %v over %d samples, want 9.1 over 10", v, n)
	}
	if v, n := quantile(nil, 0.9); !math.IsNaN(v) || n != 0 {
		t.Errorf("quantile of no samples = %v over %d, want NaN over 0", v, n)
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks the metric-name grammar and that the program
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]struct{ name, unit string }{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q breaks the [A-Za-z0-9_.-] grammar", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, reported []struct{ name, unit string }) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
			return
		}
		for i := range declared {
			if declared[i].Name != reported[i].name || declared[i].Unit != reported[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// perturbing wraps a reducer and changes one element of its output on
// one rank from the given call on.
type perturbing struct {
	spardl.InPlaceReducer
	rank, from, calls int
}

func (p *perturbing) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	p.InPlaceReducer.ReduceInto(ep, grad, out)
	if p.calls++; ep.Rank() == p.rank && p.calls > p.from {
		out[0] += 1
	}
}

func TestDigestCheckCatchesPerturbedRank(t *testing.T) {
	w := reduceWorkload{
		p: 4, n: 1 << 10, density: 0.05,
		opts:     spardl.Options{Teams: 2},
		poolSize: 2, warmup: 1, steps: 4,
	}
	g := newGradients(7, w.p, w.n, w.poolSize)
	sim := spardl.SimBackend(spardl.Ethernet)
	honest := spardl.NewFactory(w.opts)

	e, err := w.episode(sim, honest, g, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if bad := e.failedSteps(nil); bad != 0 {
		t.Fatalf("honest reducers: %d divergent steps, want 0", bad)
	}
	ref := e.digests[0]

	faulty := func(p, rank, n, k int) spardl.Reducer {
		return &perturbing{InPlaceReducer: honest(p, rank, n, k).(spardl.InPlaceReducer), rank: 2, from: 2}
	}
	e, err = w.episode(sim, faulty, g, false, false)
	if err != nil {
		t.Fatal(err)
	}
	total := w.warmup + w.steps
	if bad := e.failedSteps(nil); bad != total-2 {
		t.Errorf("rank 2 perturbed from step 2: %d divergent steps, want %d", bad, total-2)
	}
	if bad := e.failedSteps(ref); bad != total-2 {
		t.Errorf("against the honest reference: %d failed steps, want %d", bad, total-2)
	}
}

// recorder is a comm.Endpoint that records which methods were called.
type recorder struct{ called map[string]int }

func (r *recorder) hit(name string)                   { r.called[name]++ }
func (r *recorder) Rank() int                         { r.hit("Rank"); return 1 }
func (r *recorder) P() int                            { r.hit("P"); return 2 }
func (r *recorder) Clock() float64                    { r.hit("Clock"); return 3 }
func (r *recorder) Stats() comm.Stats                 { r.hit("Stats"); return comm.Stats{Rounds: 4} }
func (r *recorder) ResetStats()                       { r.hit("ResetStats") }
func (r *recorder) Compute(float64)                   { r.hit("Compute") }
func (r *recorder) Send(int, any, int)                { r.hit("Send") }
func (r *recorder) Recv(int) (any, int)               { r.hit("Recv"); return "recv", 5 }
func (r *recorder) SendRecv(int, any, int) (any, int) { r.hit("SendRecv"); return "sendrecv", 6 }
func (r *recorder) Overlap(body func(comm.Endpoint))  { r.hit("Overlap"); body(r) }
func (r *recorder) Join()                             { r.hit("Join") }
func (r *recorder) SyncClock()                        { r.hit("SyncClock") }

func TestTracedEndpointForwardsEveryMethod(t *testing.T) {
	rec := &recorder{called: map[string]int{}}
	rt := newRankTrace(0)
	var ep comm.Endpoint = &tracedEndpoint{ep: rec, rt: rt}

	if ep.Rank() != 1 || ep.P() != 2 || ep.Clock() != 3 || ep.Stats().Rounds != 4 {
		t.Error("accessor results not forwarded")
	}
	ep.ResetStats()
	ep.Compute(0.5)
	ep.Send(0, nil, 8)
	if got, n := ep.Recv(0); got != "recv" || n != 5 {
		t.Errorf("Recv returned %v, %d", got, n)
	}
	if got, n := ep.SendRecv(0, nil, 8); got != "sendrecv" || n != 6 {
		t.Errorf("SendRecv returned %v, %d", got, n)
	}
	var inner comm.Endpoint
	ep.Overlap(func(s comm.Endpoint) {
		inner = s
		s.Send(0, nil, 8)
		s.Recv(0)
	})
	ep.Join()
	ep.SyncClock()

	if _, wrapped := inner.(*tracedEndpoint); !wrapped {
		t.Errorf("Overlap handed its body %T, want a *tracedEndpoint", inner)
	}
	iface := reflect.TypeOf((*comm.Endpoint)(nil)).Elem()
	var missing []string
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; rec.called[name] == 0 {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("methods not forwarded: %v", missing)
	}
	if rec.called["Send"] != 2 || rec.called["Recv"] != 2 {
		t.Errorf("stream-lane calls not forwarded: Send %d, Recv %d, want 2 each", rec.called["Send"], rec.called["Recv"])
	}
}

// TestReplicaMatchesTrain pins the traced replica's fidelity: on a small
// case it must end bit-identical to spardl.Train, on livenet and simnet.
func TestReplicaMatchesTrain(t *testing.T) {
	w := trainWorkload{caseID: 1, p: 2, density: 0.05, warmup: 1, steps: 3, evalBatch: 64}
	rep, err := w.replica(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []spardl.Backend{spardl.LiveBackend(), spardl.SimBackend(spardl.Ethernet)} {
		e, err := w.episode(3, b)
		if err != nil {
			t.Fatal(err)
		}
		if e.finalLoss != rep.finalLoss {
			t.Errorf("%s: spardl.Train final loss %v, replica %v", b.Name(), e.finalLoss, rep.finalLoss)
		}
		if len(e.params) != w.p || len(rep.params) != w.p {
			t.Fatalf("%s: %d and %d parameter digests, want %d", b.Name(), len(e.params), len(rep.params), w.p)
		}
		for r := range e.params {
			if e.params[r] != rep.params[0] || rep.params[r] != rep.params[0] {
				t.Errorf("%s: rank %d parameters differ", b.Name(), r)
			}
		}
		if len(e.steps) != w.steps || e.setup <= 0 {
			t.Errorf("%s: %d timed steps and set-up %v, want %d and > 0", b.Name(), len(e.steps), e.setup, w.steps)
		}
	}
}
