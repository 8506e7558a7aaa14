package main

import (
	"runtime"
	"time"

	"spardl/internal/comm"
)

// span names one layer boundary the traced run times.
type span int

const (
	spanBatch    span = iota // data: ds.TrainBatch
	spanZero                 // nn: ZeroGrads
	spanForward              // nn: model.Loss
	spanBackward             // nn: loss.Backward
	spanFlatten              // nn: FlattenGrads
	spanReduce               // sparsecoll: ReduceInto, endpoint calls included
	spanScale                // train: scaling the global gradient by 1/P
	spanSGD                  // nn: SGD.Step
	spanSend                 // comm: Send
	spanRecv                 // comm: Recv and SendRecv (mostly waiting)
	spanBarrier              // comm: SyncClock
	spanCompute              // comm: Compute (modeled charge)
	spanEndpoint             // comm: every other timed endpoint method
	numSpans
)

// rankTrace accumulates one rank's span durations. It belongs to the
// rank's worker goroutine; the communication stream gets its own.
type rankTrace struct {
	spans [numSpans]time.Duration
	// inEndpoint is the running total of time inside endpoint calls; the
	// harness subtracts its growth across ReduceInto to get the reducer's
	// self time (selection, merge, residual, codec).
	inEndpoint time.Duration
	// reduceSelf is the summed ReduceInto time minus endpoint time.
	reduceSelf time.Duration
	// reduceSteps[i] is this rank's ReduceInto time in timed step i.
	reduceSteps []time.Duration
	// stream collects the calls Overlap bodies make on the stream lane.
	stream *rankTrace
	// statsStart and statsEnd bracket the timed window.
	statsStart, statsEnd comm.Stats
}

func newRankTrace(steps int) *rankTrace {
	return &rankTrace{reduceSteps: make([]time.Duration, steps), stream: &rankTrace{}}
}

// since books the time from start to now under s.
func (rt *rankTrace) since(s span, start time.Time) {
	rt.spans[s] += time.Since(start)
}

// reset clears the accumulators at the start of the timed window.
func (rt *rankTrace) reset() {
	rt.spans = [numSpans]time.Duration{}
	rt.inEndpoint = 0
	rt.reduceSelf = 0
}

// endReduce books one ReduceInto that started at start, when the running
// endpoint total stood at before, as timed step i (untimed when i < 0).
func (rt *rankTrace) endReduce(i int, start time.Time, before time.Duration) {
	d := time.Since(start)
	rt.spans[spanReduce] += d
	rt.reduceSelf += d - (rt.inEndpoint - before)
	if i >= 0 {
		rt.reduceSteps[i] = d
	}
}

// tracedEndpoint forwards every comm.Endpoint method to ep and times the
// ones that can block or do work. Overlap hands its body a tracedEndpoint
// over the stream lane's endpoint, booked into the stream's rankTrace.
type tracedEndpoint struct {
	ep comm.Endpoint
	rt *rankTrace
}

func (t *tracedEndpoint) done(s span, start time.Time) {
	d := time.Since(start)
	t.rt.spans[s] += d
	t.rt.inEndpoint += d
}

func (t *tracedEndpoint) Rank() int { return t.ep.Rank() }

func (t *tracedEndpoint) P() int { return t.ep.P() }

func (t *tracedEndpoint) Clock() float64 { return t.ep.Clock() }

func (t *tracedEndpoint) Stats() comm.Stats { return t.ep.Stats() }

func (t *tracedEndpoint) ResetStats() { t.ep.ResetStats() }

func (t *tracedEndpoint) Compute(d float64) {
	defer t.done(spanCompute, time.Now())
	t.ep.Compute(d)
}

func (t *tracedEndpoint) Send(to int, payload any, bytes int) {
	defer t.done(spanSend, time.Now())
	t.ep.Send(to, payload, bytes)
}

func (t *tracedEndpoint) Recv(from int) (any, int) {
	defer t.done(spanRecv, time.Now())
	return t.ep.Recv(from)
}

func (t *tracedEndpoint) SendRecv(peer int, payload any, bytes int) (any, int) {
	defer t.done(spanRecv, time.Now())
	return t.ep.SendRecv(peer, payload, bytes)
}

func (t *tracedEndpoint) Overlap(body func(comm.Endpoint)) {
	defer t.done(spanEndpoint, time.Now())
	stream := t.rt.stream
	t.ep.Overlap(func(inner comm.Endpoint) {
		body(&tracedEndpoint{ep: inner, rt: stream})
	})
}

func (t *tracedEndpoint) Join() {
	defer t.done(spanEndpoint, time.Now())
	t.ep.Join()
}

func (t *tracedEndpoint) SyncClock() {
	defer t.done(spanBarrier, time.Now())
	t.ep.SyncClock()
}

// layerTotals sums the traced timed windows of several episodes.
type layerTotals struct {
	steps      int           // timed steps
	rankSteps  int           // timed steps × ranks
	wall       time.Duration // summed timed step wall time
	spans      [numSpans]time.Duration
	reduceSelf time.Duration
	reduceMax  time.Duration // Σ over steps of the slowest rank's ReduceInto
	covered    time.Duration // Σ over ranks of time inside any span
	rounds     int           // Σ over episodes of the most rounds any rank made
	msgs       int           // messages sent, all ranks
	bytesMax   int64         // Σ over episodes of the most bytes any rank received
	mallocs    uint64
	gcPause    time.Duration
}

// harnessSpans are the spans the harness times around calls into layers;
// the endpoint spans nest inside spanReduce or sit beside these.
var harnessSpans = []span{spanBatch, spanZero, spanForward, spanBackward, spanFlatten, spanReduce, spanScale, spanSGD}

// add folds in one episode's traces over its timed steps, with the
// process memory statistics at the window's two ends.
func (lt *layerTotals) add(traces []*rankTrace, steps []time.Duration, mem *[2]runtime.MemStats) {
	lt.steps += len(steps)
	lt.rankSteps += len(steps) * len(traces)
	for _, d := range steps {
		lt.wall += d
	}
	var rounds int
	var bytes int64
	for _, rt := range traces {
		for s := range rt.spans {
			lt.spans[s] += rt.spans[s]
		}
		lt.reduceSelf += rt.reduceSelf
		covered := rt.inEndpoint - (rt.spans[spanReduce] - rt.reduceSelf)
		for _, s := range harnessSpans {
			covered += rt.spans[s]
		}
		lt.covered += covered
		rounds = max(rounds, rt.statsEnd.Rounds-rt.statsStart.Rounds)
		bytes = max(bytes, rt.statsEnd.BytesRecv-rt.statsStart.BytesRecv)
		lt.msgs += rt.statsEnd.MsgsSent - rt.statsStart.MsgsSent
	}
	lt.rounds += rounds
	lt.bytesMax += bytes
	for i := range steps {
		var m time.Duration
		for _, rt := range traces {
			m = max(m, rt.reduceSteps[i])
		}
		lt.reduceMax += m
	}
	lt.mallocs += mem[1].Mallocs - mem[0].Mallocs
	lt.gcPause += time.Duration(mem[1].PauseTotalNs - mem[0].PauseTotalNs)
}

// metrics renders the per-layer figures, or nil when nothing was traced;
// overhead is the traced run's step_ms.p50 relative to the untraced run's,
// minus one.
func (lt *layerTotals) metrics(overhead float64) map[string]float64 {
	if lt.steps == 0 {
		return nil
	}
	perRank := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(lt.rankSteps)
	}
	steps := float64(lt.steps)
	return map[string]float64{
		"nn.forward_ms":                perRank(lt.spans[spanForward]),
		"nn.backward_ms":               perRank(lt.spans[spanBackward]),
		"nn.flatten_ms":                perRank(lt.spans[spanFlatten]),
		"nn.sgd_step_ms":               perRank(lt.spans[spanSGD]),
		"data.batch_ms":                perRank(lt.spans[spanBatch]),
		"sparsecoll.reduce_ms":         perRank(lt.spans[spanReduce]),
		"sparsecoll.reduce_ms.max":     float64(lt.reduceMax) / float64(time.Millisecond) / steps,
		"sparsecoll.reduce_self_ms":    perRank(lt.reduceSelf),
		"comm.recv_wait_ms":            perRank(lt.spans[spanRecv]),
		"comm.send_ms":                 perRank(lt.spans[spanSend]),
		"comm.rounds_per_step":         float64(lt.rounds) / steps,
		"comm.msgs_per_step":           float64(lt.msgs) / steps,
		"comm.bytes_recv_per_step.max": float64(lt.bytesMax) / steps,
		"train.barrier_ms":             perRank(lt.spans[spanBarrier]),
		"runtime.allocs_per_step":      float64(lt.mallocs) / steps,
		"runtime.gc_pause_ms":          float64(lt.gcPause) / float64(time.Millisecond) / steps,
		"trace.coverage":               float64(lt.covered) / float64(lt.wall) / float64(lt.rankSteps/lt.steps),
		"trace.overhead_frac":          overhead,
	}
}
