package main

import (
	"math"
	"sort"
	"time"

	"spardl"
	"spardl/internal/comm"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest order statistics, and the number
// of samples it was taken over. A p90 is trustworthy only when at least
// ten samples lie beyond it, so callers report the count with the value.
func quantile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], n
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), n
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// digest is a 64-bit FNV-1a hash over the 32-bit patterns of v. Replicas
// agree on a reduce output exactly when their digests agree (up to hash
// collisions), so comparing digests checks bit-identity without keeping
// every rank's output.
func digest(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
	}
	return h
}

// modelMs applies the paper's α-β cost model, on the Ethernet profile, to
// the traffic a run actually put on the wire: x·α + y·β per update, where
// x and y are the most receive rounds and received bytes of any rank over
// steps updates.
func modelMs(rep *comm.Report, steps int) float64 {
	x := float64(rep.MaxRounds()) / float64(steps)
	y := float64(rep.MaxBytesRecv()) / float64(steps)
	return (x*spardl.Ethernet.Alpha + y*spardl.Ethernet.Beta) * 1e3
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metrics, reported with tracing off, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"steps_per_s", "1/s"},
	{"step_ms.p50", "ms"},
	{"step_ms.p90", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"wire_bytes_per_step", "bytes"},
	{"alpha_beta_ms", "model_ms"},
	{"final_loss", "1"},
}

// Per-layer metrics, reported by the traced run, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.flatten_ms", "ms"},
	{"nn.sgd_step_ms", "ms"},
	{"data.batch_ms", "ms"},
	{"sparsecoll.reduce_ms", "ms"},
	{"sparsecoll.reduce_ms.max", "ms"},
	{"sparsecoll.reduce_self_ms", "ms"},
	{"comm.recv_wait_ms", "ms"},
	{"comm.send_ms", "ms"},
	{"comm.rounds_per_step", "count"},
	{"comm.msgs_per_step", "count"},
	{"comm.bytes_recv_per_step.max", "bytes"},
	{"train.barrier_ms", "ms"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.coverage", "1"},
	{"trace.overhead_frac", "1"},
}
