// Command spardl-train trains one of the paper's seven cases with a chosen
// sparse all-reduce method and prints the convergence trajectory against
// training time — virtual α-β seconds on the simulator, measured wall
// seconds on the live backends.
//
// Usage:
//
//	spardl-train -case 1 -method spardl -p 14 -k 0.01 -iters 200
//	spardl-train -case 2 -method spardl -d 7 -variant bsag
//	spardl-train -case 5 -method oktopk -network rdma
//	spardl-train -case 1 -p 4 -iters 50 -backend tcp   # forks 4 worker processes over loopback TCP
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"

	"spardl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-train: ")
	var (
		caseID   = flag.Int("case", 1, "deep learning case 1-7 (Table II)")
		method   = flag.String("method", "spardl", "spardl | topka | topkdsa | gtopk | oktopk | dense")
		p        = flag.Int("p", 14, "number of workers")
		kRatio   = flag.Float64("k", 0.01, "sparsity ratio k/n")
		d        = flag.Int("d", 1, "SparDL team count (must divide p)")
		variant  = flag.String("variant", "auto", "SparDL SAG variant: auto | rsag | bsag")
		residual = flag.String("residual", "gres", "SparDL residuals: gres | pres | lres")
		iters    = flag.Int("iters", 120, "training iterations")
		network  = flag.String("network", "ethernet", "network profile: ethernet | rdma")
		backend  = flag.String("backend", "sim", "communication substrate: sim (deterministic α-β simulator) | live (real concurrent byte-level transport in one process) | tcp (forks one OS process per worker over loopback TCP; time fields become measured wall seconds on both live backends)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	profile := spardl.Ethernet
	if strings.EqualFold(*network, "rdma") {
		profile = spardl.RDMA
	}

	factory, err := spardl.ParseFactory(*method, *p, *d, *variant, *residual)
	if err != nil {
		log.Fatal(err)
	}

	// A process spawned by the tcp parent below: run exactly one rank over
	// the mesh, then exit. Rank 0 prints the trajectory for the cluster.
	if tcpCfg, isChild, envErr := spardl.TCPConfigFromEnv(); isChild {
		if envErr != nil {
			log.Fatal(envErr)
		}
		runTCPWorker(tcpCfg, *caseID, *kRatio, factory, *iters, *seed)
		return
	}

	c := spardl.CaseByID(*caseID)
	fmt.Printf("case %d: %s (%s), %d workers, k/n=%g, %s network\n",
		c.ID, c.Name, c.Task, *p, *kRatio, profile.Name)

	cfg := spardl.TrainConfig{
		Case: c, P: *p, KRatio: *kRatio, Network: profile,
		Factory: factory, Iters: *iters, Seed: *seed,
		EvalEvery: max(1, *iters/10),
	}
	switch strings.ToLower(*backend) {
	case "sim":
	case "live":
		cfg.Backend = spardl.LiveBackend()
	case "tcp":
		// One-command distributed demo: fork one worker process per rank
		// over loopback TCP; rank 0's child prints the trajectory.
		if err := forkTCPCluster(*p); err != nil {
			log.Fatal(err)
		}
		return
	default:
		log.Fatalf("unknown backend %q", *backend)
	}
	res := spardl.Train(cfg)
	printResult(c, res)
}

// forkTCPCluster re-executes this binary once per rank with the cluster
// coordinates in the environment (the flags pass through unchanged); only
// rank 0's trajectory reaches stdout.
func forkTCPCluster(p int) error {
	return spardl.ForkTCPWorkers(p, func(rank int, cmd *exec.Cmd) {
		cmd.Stdout = io.Discard
		if rank == 0 {
			cmd.Stdout = os.Stdout
		}
	})
}

// runTCPWorker is the child-process body: mesh up, train this rank, print
// on rank 0, and turn a poisoned fabric into a clean non-zero exit.
func runTCPWorker(tcpCfg spardl.TCPConfig, caseID int, kRatio float64, factory spardl.Factory, iters int, seed int64) {
	c := spardl.CaseByID(caseID)
	res, rank, err := spardl.TrainTCPRank(tcpCfg, spardl.TrainConfig{
		Case: c, KRatio: kRatio,
		Factory: factory, Iters: iters, Seed: seed,
		EvalEvery: max(1, iters/10),
	}, func(rank, p int) {
		if rank == 0 {
			fmt.Printf("case %d: %s (%s), %d worker processes over tcpnet, k/n=%g\n",
				c.ID, c.Name, c.Task, p, kRatio)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if rank == 0 {
		spardl.FprintTrajectory(os.Stdout, c, res)
		// Each tcpnet process holds only its own rank's statistics, so the
		// breakdown is labeled per-rank, matching cmd/spardl-worker — not
		// the simulator's cluster-wide worst-worker aggregation.
		fmt.Printf("wall-clock breakdown (rank 0): comm %.4fs + comp %.4fs (modeled); rounds/iter: %d; real bytes/iter: %d\n",
			res.CommTime, res.CompTime, res.MaxRounds, res.BytesPerIter)
	}
}

func printResult(c *spardl.Case, res *spardl.TrainResult) {
	spardl.FprintTrajectory(os.Stdout, c, res)
	fmt.Printf("per-update breakdown: comm %.4fs + comp %.4fs (modeled); worst-worker rounds/iter: %d; bytes/iter: %d\n",
		res.CommTime, res.CompTime, res.MaxRounds, res.BytesPerIter)
}
