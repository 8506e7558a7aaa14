// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time in this process, checks every output, and
// prints one JSON result line:
//
//	perfbench --workload reduce-sim --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, which spends the first half
// of the time untraced (for trace.overhead_frac) and the second half
// traced. README.md in this directory explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	errs              []error
	episodes          int
	setup             []float64       // seconds, one per untraced episode
	steps             []time.Duration // untraced timed steps
	rates             []float64       // steps per second, one per untraced episode
	tracedSteps       []time.Duration
	layers            layerTotals // traced episodes
	heapPeak          float64     // bytes
	stealFrac         float64     // host steal share of CPU time, untraced episodes; -1 if unknown
	wireBytes         float64
	alphaBetaMs       float64
	finalLoss         float64
}

// fail counts n steps as failed because of err.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	o.errs = append(o.errs, err)
}

// phase is what an episode is for.
type phase int

const (
	// warmup is the run's first episode: fully checked, but its timings
	// are dropped, because it alone pays the process's first heap growth
	// and cold caches.
	warmup phase = iota
	untraced
	traced
)

func (p phase) String() string {
	return [...]string{"warmup", "untraced", "traced"}[p]
}

// logEpisode prints one episode's figures to standard error as progress.
func logEpisode(p phase, setup time.Duration, steps []time.Duration) {
	p50, n := quantile(millis(steps), 0.5)
	fmt.Fprintf(os.Stderr, "perfbench: %s episode: setup %.1f ms, step p50 %.3f ms over %d steps\n",
		p, float64(setup)/1e6, p50, n)
}

// record files one checked episode's figures under its phase.
func (o *outcome) record(p phase, setup time.Duration, steps []time.Duration, traces []*rankTrace, mem *[2]runtime.MemStats) {
	o.episodes++
	logEpisode(p, setup, steps)
	switch p {
	case untraced:
		var total time.Duration
		for _, d := range steps {
			total += d
		}
		o.setup = append(o.setup, setup.Seconds())
		o.rates = append(o.rates, float64(len(steps))/total.Seconds())
		o.steps = append(o.steps, steps...)
	case traced:
		o.tracedSteps = append(o.tracedSteps, steps...)
		o.layers.add(traces, steps, mem)
	}
}

// workloads maps workload names to their runners.
var workloads = map[string]func(options) *outcome{
	"reduce-sim": reduceSim.run,
	"train-live": trainLive.run,
	"reduce-tcp": reduceTCP.run,
}

// schedule runs one warm-up episode, then untraced episodes until the
// untraced share of o.seconds is spent (at least three, so set-up is a
// median), then, for a traced run, traced episodes until the rest is
// spent. A false return from run stops it. The heap is sampled over the
// warm-up and untraced episodes, and the host's steal time over the
// untraced ones.
func schedule(o options, out *outcome, run func(phase) bool) {
	stop := sampleHeap(&out.heapPeak)
	if !run(warmup) {
		stop()
		return
	}
	start, steal := time.Now(), cpuSteal()
	untracedEnd, minUntraced := start.Add(o.seconds), 3
	if o.trace {
		untracedEnd, minUntraced = start.Add(o.seconds/2), 1
	}
	for n := 0; n < minUntraced || time.Now().Before(untracedEnd); n++ {
		if !run(untraced) {
			stop()
			return
		}
	}
	stop()
	out.stealFrac = -1
	if steal >= 0 {
		out.stealFrac = (cpuSteal() - steal) / time.Since(start).Seconds() / float64(runtime.NumCPU())
	}
	if !o.trace {
		return
	}
	for n := 0; n < 1 || time.Now().Before(start.Add(o.seconds)); n++ {
		if !run(traced) {
			return
		}
	}
}

// cpuSteal returns the seconds the hypervisor has withheld from this
// machine's CPUs since boot, summed over CPUs, from /proc/stat; -1 if it
// cannot be read. On a shared virtual machine steal time is the main
// source of run-to-run spread, so results report its share.
func cpuSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// sampleHeap records the peak bytes of live and not-yet-swept heap
// objects into *peak, sampling every 2 ms until the returned stop
// function is called; stop waits for the sampler to exit.
func sampleHeap(peak *float64) (stop func()) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			*peak = max(*peak, float64(sample[0].Value.Uint64()))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// endToEndMetrics renders the untraced run's figures. Throughput is the
// median of the episodes' rates: a rate over all steps pooled is a mean,
// which one hypervisor stall of a few milliseconds moves far more than it
// moves the step-time percentiles.
func (o *outcome) endToEndMetrics() map[string]float64 {
	ms := millis(o.steps)
	p50, _ := quantile(ms, 0.5)
	p90, _ := quantile(ms, 0.9)
	return map[string]float64{
		"steps_per_s":         median(o.rates),
		"step_ms.p50":         p50,
		"step_ms.p90":         p90,
		"setup_s":             median(o.setup),
		"heap_peak_mb":        o.heapPeak / (1 << 20),
		"wire_bytes_per_step": o.wireBytes,
		"alpha_beta_ms":       o.alphaBetaMs,
		"final_loss":          o.finalLoss,
	}
}

// host describes the machine and build a result came from.
func host(o options, out *outcome) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"episodes": out.episodes, "step_samples": len(out.steps), "steal_frac": out.stealFrac,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: reduce-sim, train-live or reduce-tcp")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out := workloads[o.workload](o)

	table, values := endToEnd, out.endToEndMetrics()
	if o.trace {
		overhead := median(millis(out.tracedSteps))/median(millis(out.steps)) - 1
		table, values = perLayer, out.layers.metrics(overhead)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			out.errs = append(out.errs, fmt.Errorf("metric %s was not measured", m.name))
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, err := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"host": host(o, out)}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
