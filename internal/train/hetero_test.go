package train

import (
	"fmt"
	"strings"
	"testing"
)

func TestComputeSkewStretchesIterations(t *testing.T) {
	base := baseConfig()
	base.Iters = 10
	homo := Run(base)

	skewed := baseConfig()
	skewed.Iters = 10
	skewed.ComputeSkew = []float64{1, 1, 1, 2.5}
	hetero := Run(skewed)

	// Synchronous SGD waits for the straggler: total time must grow by
	// roughly the straggler's extra compute.
	extra := 1.5 * CaseByID(1).ComputeTime * 10
	if hetero.TotalTime < homo.TotalTime+0.8*extra {
		t.Fatalf("straggler not reflected: homo %.3fs hetero %.3fs (want ≥ +%.3fs)",
			homo.TotalTime, hetero.TotalTime, 0.8*extra)
	}
	// Learning outcome must be unaffected (same gradients, same updates).
	if hetero.FinalMetric != homo.FinalMetric {
		t.Fatalf("skew changed the training result: %.4f vs %.4f", hetero.FinalMetric, homo.FinalMetric)
	}
}

func TestPaperScaleCommMakesCommRealistic(t *testing.T) {
	base := baseConfig()
	base.Iters = 10
	plain := Run(base)

	scaled := baseConfig()
	scaled.Iters = 10
	scaled.PaperScaleComm = true
	paper := Run(scaled)

	ratio := float64(CaseByID(1).PaperParams) / float64(plain.N)
	if ratio < 10 {
		t.Skip("stand-in unexpectedly large")
	}
	// β grows by PaperParams/n, so comm time must grow substantially (not
	// exactly linearly: the α term is unchanged).
	if paper.CommTime < 5*plain.CommTime {
		t.Fatalf("PaperScaleComm had little effect: %.6fs vs %.6fs", paper.CommTime, plain.CommTime)
	}
	if paper.CompTime != plain.CompTime {
		t.Fatalf("compute time must be unaffected: %.6f vs %.6f", paper.CompTime, plain.CompTime)
	}
}

// TestComputeSkewLengthChecked: a ComputeSkew slice that does not hold one
// entry per worker is a config error on both entry points — Run panics and
// RunElastic returns an error, each naming the length and P — instead of
// an index panic inside a worker.
func TestComputeSkewLengthChecked(t *testing.T) {
	for _, skew := range [][]float64{{}, {1, 2}, {1, 1, 1, 1, 1}} {
		cfg := elasticConfig()
		cfg.ComputeSkew = skew
		want := fmt.Sprintf("%d entries for P=%d", len(skew), cfg.P)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("Run with %d skew entries: panic %v, want one naming %q", len(skew), r, want)
				}
			}()
			Run(cfg)
		}()
		if _, _, err := RunElastic(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunElastic with %d skew entries: error %v, want one naming %q", len(skew), err, want)
		}
	}
}
