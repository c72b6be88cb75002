package rl

import (
	"math"
	"runtime"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/nn"
)

// TestEpochStatsKernelWorkerInvariance trains the same fixed-seed run
// under token capacities 1, 2, 3 and NumCPU+3 and asserts the epoch
// statistics streams and the final network weights are bit-identical:
// execution parallelism (token pool size, hence the update's lane count
// and the shard→lane mapping) must never change the math. Capacity 3
// splits the 4 shards unevenly over the lanes it may take; NumCPU+3
// gives more lanes than CPUs. The gradient reduction grouping
// (PPOConfig.Workers) stays fixed — it is part of the math.
func TestEpochStatsKernelWorkerInvariance(t *testing.T) {
	epochStatsInvariance(t, cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.LRU})
}

// TestEpochStatsKernelWorkerInvarianceDefended repeats the invariance
// check with an index-mapping defense on the cache hot path: the CEASER
// rekey schedule (period 64 — many epochs per rollout) must be driven
// purely by per-env access counts, never by scheduling.
func TestEpochStatsKernelWorkerInvarianceDefended(t *testing.T) {
	epochStatsInvariance(t, cache.Config{
		NumBlocks: 2, NumWays: 2, Policy: cache.LRU,
		Defense: cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 64},
	})
}

func epochStatsInvariance(t *testing.T, cc cache.Config) {
	defer nn.SetKernelWorkers(runtime.GOMAXPROCS(0))
	run := func() ([]EpochStats, []float64) {
		var envs []*env.Env
		for i := 0; i < 2; i++ {
			cfg := env.Config{
				Cache:      cc,
				AttackerLo: 1, AttackerHi: 2,
				VictimLo: 0, VictimHi: 0,
				FlushEnable:    true,
				VictimNoAccess: true,
				WindowSize:     8,
				Warmup:         -1,
				Seed:           31 + int64(i)*7919,
			}
			cfg.Cache.Seed = cfg.Seed
			e, err := env.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, e)
		}
		net := nn.NewMLP(nn.MLPConfig{
			ObsDim: envs[0].ObsDim(), Actions: envs[0].NumActions(),
			Hidden: []int{16, 16}, Seed: 31,
		})
		tr, err := NewTrainer(net, envs, PPOConfig{
			StepsPerEpoch: 256, MinibatchSize: 64, UpdateEpochs: 2,
			MaxEpochs: 2, Workers: 4, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		var stats []EpochStats
		for epoch := 1; epoch <= 2; epoch++ {
			stats = append(stats, tr.Epoch(epoch))
		}
		var weights []float64
		for _, p := range net.Params() {
			weights = append(weights, p.Val...)
		}
		return stats, weights
	}

	var ref []EpochStats
	var refW []float64
	for _, workers := range []int{1, 2, 3, runtime.NumCPU() + 3} {
		nn.SetKernelWorkers(workers)
		got, gotW := run()
		if ref == nil {
			ref, refW = got, gotW
			continue
		}
		for i := range ref {
			if ref[i].Episodes != got[i].Episodes || ref[i].Steps != got[i].Steps {
				t.Fatalf("kernel workers %d: epoch %d collected %d episodes/%d steps, want %d/%d",
					workers, i+1, got[i].Episodes, got[i].Steps, ref[i].Episodes, ref[i].Steps)
			}
			pairs := [][2]float64{
				{ref[i].MeanReward, got[i].MeanReward},
				{ref[i].MeanLength, got[i].MeanLength},
				{ref[i].Accuracy, got[i].Accuracy},
				{ref[i].GuessRate, got[i].GuessRate},
				{ref[i].UselessRate, got[i].UselessRate},
				{ref[i].Entropy, got[i].Entropy},
				{ref[i].PolicyLoss, got[i].PolicyLoss},
				{ref[i].ValueLoss, got[i].ValueLoss},
			}
			for j, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("kernel workers %d: epoch %d field %d diverged: %v vs %v",
						workers, i+1, j, p[0], p[1])
				}
			}
		}
		if len(gotW) != len(refW) {
			t.Fatalf("kernel workers %d: %d weights, want %d", workers, len(gotW), len(refW))
		}
		for j := range refW {
			if math.Float64bits(refW[j]) != math.Float64bits(gotW[j]) {
				t.Fatalf("kernel workers %d: final weight %d diverged: %v vs %v",
					workers, j, gotW[j], refW[j])
			}
		}
	}
}
