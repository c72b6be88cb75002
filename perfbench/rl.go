package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"autocat"
)

// rlScenario is one row of the shaping suite (the pp-onebit and
// fr-shared rows of exp.ShapingScenarios). The two differ in
// observation and action shape; the suite's other rows cost 2-3x more
// per seed and are left out.
type rlScenario struct {
	name string
	env  autocat.EnvConfig
}

var rlScenarios = []rlScenario{
	{"pp-onebit", autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1, VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true, WindowSize: 6, Warmup: -1,
	}},
	{"fr-shared", autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 4, Policy: autocat.LRU},
		AttackerLo: 0, AttackerHi: 0, VictimLo: 0, VictimHi: 0,
		FlushEnable: true, VictimNoAccess: true, WindowSize: 8,
	}},
}

// The production schedule and the first-reliable stop rule.
const (
	rlEnvs         = 8
	rlMaxEpochs    = 60
	rlEvalEpisodes = 64
	rlExtractTries = 64
	rlTarget       = 0.95
	// rlSeedSeconds sizes a short run: every scenario trains on one suite
	// seed per that many seconds of run length. The whole suite takes
	// ~32 s on 2 vCPUs.
	rlSeedSeconds = 10
	// rlLatencyLimit is the goodput limit on one training.
	rlLatencyLimit = 20 * time.Second
	rlSetupReps    = 41
)

// rlPPO is the tuned exploration schedule (exp.standardPPO) with the
// gradient shard count pinned, so step counts do not depend on the
// machine.
func rlPPO(seed int64) autocat.PPOConfig {
	return autocat.PPOConfig{
		StepsPerEpoch:   3000,
		MaxEpochs:       rlMaxEpochs,
		EntAnnealEpochs: rlMaxEpochs / 2,
		ExploreEps:      0.35,
		Seed:            seed,
		Workers:         4,
	}
}

// rlSuite is the training-seed suite of exp.FirstReliable, the one the
// first_reliable rows of BENCH_hotpath.json record. Steps to the first
// reliable attack are a property of the scenario and training seed and
// differ by ±20% between seeds, so a run that trained seeds drawn from
// the workload seed would measure the draw more than the code. Every run
// trains the suite; the workload seed draws the order of the trainings
// and seeds the set-up repetitions.
var rlSuite = []int64{101, 202, 303}

// rlTraining is one planned training: a scenario and a suite seed.
type rlTraining struct {
	sc   rlScenario
	seed int64
}

// rlPlan lists a run's trainings: every scenario on the first
// seconds/rlSeedSeconds suite seeds, rounded up (the whole suite from
// 21 s on), in an order drawn from the workload seed.
func rlPlan(seed int64, seconds int) []rlTraining {
	n := min(len(rlSuite), int(math.Ceil(float64(seconds)/rlSeedSeconds)))
	var plan []rlTraining
	for _, s := range rlSuite[:n] {
		for _, sc := range rlScenarios {
			plan = append(plan, rlTraining{sc, s})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// rlRig is one training's environments, network and trainer.
type rlRig struct {
	envs    []*autocat.Env
	net     autocat.PolicyValueNet
	trainer *autocat.Trainer
}

// newRig builds the rig the way core.New does: eight environments with
// spread seeds, an MLP sized from the first, and the trainer. wrap, when
// set, decorates the network (the traced run's nn spans).
func newRig(cfg autocat.EnvConfig, seed int64, wrap func(autocat.PolicyValueNet) autocat.PolicyValueNet) (*rlRig, error) {
	rig := &rlRig{}
	for i := 0; i < rlEnvs; i++ {
		c := cfg
		c.Seed = seed + int64(i)*7919
		e, err := autocat.NewEnv(c)
		if err != nil {
			return nil, err
		}
		rig.envs = append(rig.envs, e)
	}
	e0 := rig.envs[0]
	rig.net = autocat.NewMLP(autocat.MLPConfig{ObsDim: e0.ObsDim(), Actions: e0.NumActions(), Seed: seed})
	if wrap != nil {
		rig.net = wrap(rig.net)
	}
	tr, err := autocat.NewTrainer(rig.net, rig.envs, rlPPO(seed))
	if err != nil {
		return nil, err
	}
	rig.trainer = tr
	return rig, nil
}

// training is one closed-loop training to the first reliable attack.
type training struct {
	scenario string
	seed     int64
	setup    time.Duration
	wall     time.Duration   // first epoch through the successful extraction
	iters    []time.Duration // each epoch with its greedy evaluation
	steps    int
	reliable bool
	correct  bool     // the extracted attack guessed correctly
	attacks  []string // canonical attacks the final policy performs
}

func (t training) ok() bool { return t.reliable && t.correct }

// train runs one training: epochs until greedy accuracy meets the
// target with a positive return and a correct attack extracts.
func train(o opts, sc rlScenario, seed int64, req int) (training, error) {
	t := training{scenario: sc.name, seed: seed}
	cfg := sc.env
	cfg.Seed = seed
	var parent atomic.Int64
	parent.Store(-1)
	var wrap func(autocat.PolicyValueNet) autocat.PolicyValueNet
	if o.tr != nil {
		wrap = func(n autocat.PolicyValueNet) autocat.PolicyValueNet {
			return &tracedNet{PolicyValueNet: n, tr: o.tr, req: req, parent: &parent}
		}
	}
	t0 := time.Now()
	rig, err := newRig(cfg, seed, wrap)
	if err != nil {
		return t, fmt.Errorf("%s seed %d: %w", sc.name, seed, err)
	}
	t.setup = time.Since(t0)
	if o.tr != nil {
		end := o.tr.now()
		o.tr.record(span{Name: "core.setup", Req: req, Parent: -1, Start: end - int64(t.setup), End: end})
	}
	// spanned runs f inside a span that nn spans nest under.
	spanned := func(name string, f func() int) {
		if o.tr == nil {
			f()
			return
		}
		i := o.tr.begin(name, req, -1)
		parent.Store(int64(i))
		rows := f()
		o.tr.end(i, rows)
		parent.Store(-1)
	}
	start := time.Now()
	e0 := rig.envs[0]
	var ep autocat.Episode
	for epoch := 1; epoch <= rlMaxEpochs && !t.reliable; epoch++ {
		iter := time.Now()
		spanned("rl.epoch", func() int {
			st := rig.trainer.Epoch(epoch)
			t.steps += st.Steps
			return st.Steps
		})
		var ev autocat.EvalStats
		spanned("rl.eval", func() int {
			ev = autocat.Evaluate(rig.net, e0, rlEvalEpisodes)
			return ev.Episodes
		})
		t.iters = append(t.iters, time.Since(iter))
		if ev.Accuracy < rlTarget || ev.MeanReturn <= 0 {
			continue
		}
		spanned("rl.extract", func() int {
			ep, t.reliable = autocat.ExtractAttack(rig.net, e0, rlExtractTries)
			return len(ep.Actions)
		})
	}
	t.wall = time.Since(start)
	if t.reliable {
		t.correct = ep.Guesses > 0 && ep.Correct == ep.Guesses
		t.attacks = policyAttacks(rig.net, e0)
	}
	return t, nil
}

// rlReplays is how many greedy episodes policyAttacks plays: enough to
// meet every secret of the suite's scenarios.
const rlReplays = 32

// policyAttacks replays the trained policy greedily (untimed) and
// returns the distinct canonical attacks of the episodes that guessed
// correctly. The extraction keeps the first correct episode, whose
// secret is a random draw; the policy's attacks over all secrets do not
// depend on that draw.
func policyAttacks(net autocat.PolicyValueNet, e *autocat.Env) []string {
	seen := map[string]bool{}
	var keys []string
	for i := 0; i < rlReplays; i++ {
		ep := autocat.ReplayGreedy(net, e)
		if ep.Guesses == 0 || ep.Correct != ep.Guesses {
			continue
		}
		if k := autocat.CanonicalizeAttack(e, ep.Actions); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func runRL(ctx context.Context, o opts) (*outcome, error) {
	out := newOutcome()
	setup, err := medianSetup(rlSetupReps, func() (func() error, error) {
		for _, sc := range rlScenarios {
			cfg := sc.env
			cfg.Seed = o.seed
			if _, err := newRig(cfg, o.seed, nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup, rlSetupReps)

	rss := startRSS()
	before := autocat.TakeMetricsSnapshot()
	var ts []training
	for _, p := range rlPlan(o.seed, o.seconds) {
		t, err := train(o, p.sc, p.seed, len(ts))
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	delta := metricsDelta{before, autocat.TakeMetricsSnapshot()}
	rss.finish(out)

	var walls, lat []float64
	var measured time.Duration
	steps, found, good, catalogued := 0, 0, 0, 0
	for _, t := range ts {
		out.attempted++
		measured += t.setup + t.wall
		walls = append(walls, t.wall.Seconds())
		for _, d := range t.iters {
			lat = append(lat, float64(d)/1e6)
		}
		steps += t.steps
		if !t.ok() {
			out.failed++
			out.fail("%s seed %d: reliable=%v correct=%v after %d steps", t.scenario, t.seed, t.reliable, t.correct, t.steps)
			continue
		}
		found++
		catalogued += len(t.attacks)
		if t.wall <= rlLatencyLimit {
			good++
		}
		out.note("training %-9s seed %-6d steps %-7d %.3fs  %s", t.scenario, t.seed, t.steps, t.wall.Seconds(), strings.Join(t.attacks, " | "))
	}
	n := len(ts)
	out.set("time_to_first_reliable_s", mean(walls), n)
	out.set("steps_to_first_reliable", float64(steps)/float64(n), n)
	out.set("jobs_per_s", float64(n)/measured.Seconds(), n)
	out.set("attacks_found", float64(found), n)
	// Each training catalogues its policy's attacks as a campaign job's
	// catalog would; the run's size is the sum. Deduplicating across
	// trainings leaves 4 to 6 entries, where one variant moves the
	// count by a fifth.
	out.set("catalog_size", float64(catalogued), found)
	out.set("goodput_rps", float64(good)/measured.Seconds(), n)
	out.set("latency_ms_p50", quantile(lat, 0.5), len(lat))
	out.set("latency_ms_p90", quantile(lat, 0.9), len(lat))
	out.set("admitted_share", 1, n)
	out.set("success_share", float64(found)/float64(n), n)

	if o.tr != nil {
		rlLayers(o, out, delta, measured)
	}
	return out, nil
}

// rlLayers derives the traced run's per-layer metrics.
func rlLayers(o opts, out *outcome, delta metricsDelta, measured time.Duration) {
	setLayerCounters(out, delta)
	apply, grad := o.tr.named("nn.apply_batch"), o.tr.named("nn.grad_batch")
	ams, arows := busy(apply)
	gms, grows := busy(grad)
	out.set("nn.apply_batch_busy_ms", ams, len(apply))
	out.set("nn.apply_batch_rows", float64(arows), len(apply))
	out.set("nn.apply_ns_per_row", ratio(ams*1e6, float64(arows)), len(apply))
	out.set("nn.grad_batch_busy_ms", gms, len(grad))
	out.set("nn.grad_batch_rows", float64(grows), len(grad))
	out.set("nn.grad_ns_per_row", ratio(gms*1e6, float64(grows)), len(grad))

	// An epoch's self time is its wall-clock minus the part its nn spans
	// cover: env stepping, sampling, GAE, Adam and shard sync.
	byParent := map[int][]span{}
	for _, s := range append(apply, grad...) {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	epochs := o.tr.named("rl.epoch")
	self := 0.0
	for _, e := range epochs {
		self += float64(e.End-e.Start-covered(byParent[e.ID], e.Start, e.End)) / 1e6
	}
	ems := durationsMS(epochs)
	out.set("rl.epochs", float64(len(epochs)), len(epochs))
	out.set("rl.epoch_ms_p50", quantile(ems, 0.5), len(epochs))
	out.set("rl.epoch_ms_p90", quantile(ems, 0.9), len(epochs))
	out.set("rl.epoch_self_ms", self, len(epochs))
	evals, extracts, setups := o.tr.named("rl.eval"), o.tr.named("rl.extract"), o.tr.named("core.setup")
	evalMS, _ := busy(evals)
	extractMS, _ := busy(extracts)
	setupMS, _ := busy(setups)
	out.set("rl.eval_ms", evalMS, len(evals))
	out.set("rl.extract_ms", extractMS, len(extracts))
	out.set("core.setup_ms", quantile(durationsMS(setups), 0.5), len(setups))

	var cfgs []autocat.EnvConfig
	for _, sc := range rlScenarios {
		cfgs = append(cfgs, sc.env)
	}
	ns, n := envProbe(cfgs, o.seed)
	out.set("env.ns_per_step", ns, n)

	out.set("trace.headline_ms", out.values["time_to_first_reliable_s"]*1e3, out.samples["time_to_first_reliable_s"])
	wall := float64(measured) / 1e6
	epochMS := 0.0
	for _, v := range ems {
		epochMS += v
	}
	out.set("trace.wall_ms", wall, 1)
	out.set("trace.unaccounted_ms", wall-setupMS-epochMS-evalMS-extractMS, 1)
}

// envProbeSteps is the env-layer probe's length per configuration.
const envProbeSteps = 20000

// envProbe times the env layer at its boundary: uniformly random
// actions stepped through StepInto on each configuration, after the
// measured section. It returns ns per step and the steps taken.
func envProbe(cfgs []autocat.EnvConfig, seed int64) (float64, int) {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	steps := 0
	for _, cfg := range cfgs {
		cfg.Seed = seed
		e, err := autocat.NewEnv(cfg)
		if err != nil {
			continue
		}
		obs := e.Reset()
		acts := make([]int, envProbeSteps)
		for i := range acts {
			acts[i] = rng.Intn(e.NumActions())
		}
		t0 := time.Now()
		for _, a := range acts {
			if _, done := e.StepInto(a, obs); done {
				e.ResetInto(obs)
			}
		}
		total += time.Since(t0)
		steps += len(acts)
	}
	return ratio(float64(total), float64(steps)), steps
}
