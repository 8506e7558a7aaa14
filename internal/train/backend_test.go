package train

import (
	"testing"

	"spardl/internal/pipeline"
	"spardl/internal/tcpnet"
)

// TestLivenetBackendMatchesSimnet: the trainer on the real byte-level
// transport must walk the exact same optimization trajectory as on the
// simulator — losses and metrics bit-identical at every evaluation point;
// only the time axis differs (wall seconds vs. virtual α-β seconds).
func TestLivenetBackendMatchesSimnet(t *testing.T) {
	cfg := baseConfig()
	cfg.Iters = 8
	cfg.EvalEvery = 2
	sim := Run(cfg)

	cfg.Backend = tcpnet.MemBackend(nil)
	live := Run(cfg)

	if len(sim.Points) != len(live.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(sim.Points), len(live.Points))
	}
	for i := range sim.Points {
		if sim.Points[i].Loss != live.Points[i].Loss || sim.Points[i].Metric != live.Points[i].Metric {
			t.Fatalf("trajectory diverged at point %d: sim %+v, live %+v",
				i, sim.Points[i], live.Points[i])
		}
	}
	if sim.FinalLoss != live.FinalLoss || sim.FinalMetric != live.FinalMetric {
		t.Fatalf("final state diverged: sim (%g, %g), live (%g, %g)",
			sim.FinalLoss, sim.FinalMetric, live.FinalLoss, live.FinalMetric)
	}
	if live.TotalTime <= 0 {
		t.Fatalf("livenet reported no wall time: %+v", live)
	}
}

// TestLivenetBackendRunsPipeline drives the bucketed overlap schedule over
// livenet's real communication streams: per-layer buckets launch on a real
// goroutine per worker, and the model update must still match the simnet
// pipeline run exactly.
func TestLivenetBackendRunsPipeline(t *testing.T) {
	cfg := pipeConfig()
	cfg.Pipeline = &pipeline.Config{} // one bucket per layer
	sim := Run(cfg)

	cfg.Backend = tcpnet.MemBackend(nil)
	live := Run(cfg)

	if live.Buckets != sim.Buckets {
		t.Fatalf("bucket counts differ: %d vs %d", live.Buckets, sim.Buckets)
	}
	if sim.FinalLoss != live.FinalLoss || sim.FinalMetric != live.FinalMetric {
		t.Fatalf("pipelined final state diverged: sim (%g, %g), live (%g, %g)",
			sim.FinalLoss, sim.FinalMetric, live.FinalLoss, live.FinalMetric)
	}
}
