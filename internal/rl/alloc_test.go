package rl

import (
	"runtime"
	"testing"

	"autocat/internal/nn"
)

// TestEpochAllocsFlatInMinibatches pins the update's allocation
// contract on the production schedule (8 envs, 3000 steps per epoch,
// 8 update epochs, 4 gradient shards): a steady-state epoch allocates a
// handful of objects, and doubling the epoch's steps — twice the
// minibatches — adds none. Any per-minibatch goroutine, closure or
// buffer would add hundreds. The token pool is sized so the update runs
// on a two-lane team, the shape it takes on a 2-CPU machine.
func TestEpochAllocsFlatInMinibatches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the plain test run gates allocations")
	}
	defer nn.SetKernelWorkers(runtime.GOMAXPROCS(0))
	nn.SetKernelWorkers(2)
	allocs := func(steps int) float64 {
		envs := newEnvs(t, oneBitConfig(5), 8)
		net := nn.NewMLP(nn.MLPConfig{ObsDim: envs[0].ObsDim(), Actions: envs[0].NumActions(), Seed: 5})
		tr, err := NewTrainer(net, envs, PPOConfig{StepsPerEpoch: steps, Workers: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		epoch := 1
		for ; epoch <= 2; epoch++ { // grow every reusable buffer
			tr.Epoch(epoch)
		}
		return testing.AllocsPerRun(3, func() {
			tr.Epoch(epoch)
			epoch++
		})
	}
	base, double := allocs(3000), allocs(6000)
	t.Logf("allocs per epoch: %.1f at 3000 steps, %.1f at 6000", base, double)
	if base >= 10 || double >= 10 {
		t.Errorf("allocs per epoch = %.1f at 3000 steps, %.1f at 6000; want single digits", base, double)
	}
	if double > base+1 {
		t.Errorf("allocs per epoch grow with the minibatch count: %.1f at 3000 steps, %.1f at 6000", base, double)
	}
}
