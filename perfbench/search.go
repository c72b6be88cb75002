package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"autocat"
	"autocat/internal/campaign"
)

// searchGeometries, searchPolicies, searchDefenses and searchAttackers
// span the search-campaign grid: 128 points, one replicate.
var (
	searchGeometries = []autocat.CacheConfig{
		{NumBlocks: 4, NumWays: 4},
		{NumBlocks: 8, NumWays: 4},
		{NumBlocks: 4, NumWays: 2},
		{NumBlocks: 2, NumWays: 2},
	}
	searchPolicies  = []autocat.PolicyKind{autocat.LRU, autocat.PLRU, autocat.RRIP, autocat.Random}
	searchDefenses  = []string{autocat.CampaignDefenseNone, autocat.CampaignDefenseCEASER, autocat.CampaignDefenseSkew, autocat.CampaignDefensePartition}
	searchAttackers = []autocat.CampaignAddrRange{{Lo: 0, Hi: 3}, {Lo: 1, Hi: 4}}
)

const (
	// searchReplicateSeconds is about what one replicate of the grid
	// takes on 2 vCPUs; the run makes one replicate per that many
	// seconds of run length (6 at 36 s).
	searchReplicateSeconds = 5.7
	// searchLatencyLimit is the goodput limit on one campaign job.
	searchLatencyLimit = time.Second
	searchSetupReps    = 41
)

func searchReplicates(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/searchReplicateSeconds)))
}

// searchSpec is replicate r of the grid for a workload seed: every grid
// point with env seed 1000*seed + r + 1.
func searchSpec(seed int64, r int) autocat.CampaignSpec {
	return autocat.CampaignSpec{
		Name:           fmt.Sprintf("perfbench-search-%d", r),
		Caches:         searchGeometries,
		Policies:       searchPolicies,
		Defenses:       searchDefenses,
		Attackers:      searchAttackers,
		Victims:        []autocat.CampaignAddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{autocat.CampaignExplorerSearch},
		Seeds:          []int64{1000*seed + int64(r) + 1},
		FlushEnable:    true,
		VictimNoAccess: true,
	}
}

// jobClock times every campaign job from outside the runner: per-job
// start and end by job index, and in the traced run a campaign.job span
// per job (request base+index).
type jobClock struct {
	t0         time.Time
	start, end []int64 // ns since t0, by job index
	base       int
	tr         *tracer
}

func newJobClock(jobs, base int, tr *tracer) *jobClock {
	return &jobClock{t0: time.Now(), start: make([]int64, jobs), end: make([]int64, jobs), base: base, tr: tr}
}

// wrap returns a runner that times base. Each job index runs on one
// worker at a time, so the slots need no lock; a clock sized for no
// jobs (many campaigns share it) records spans only.
func (c *jobClock) wrap(base campaign.Runner) campaign.Runner {
	return func(ctx context.Context, job campaign.Job) campaign.JobResult {
		s := int64(time.Since(c.t0))
		jr := base(ctx, job)
		e := int64(time.Since(c.t0))
		if job.Index < len(c.start) {
			c.start[job.Index], c.end[job.Index] = s, e
		}
		if c.tr != nil {
			off := int64(c.t0.Sub(c.tr.t0))
			c.tr.record(span{Name: "campaign.job", Req: c.base + job.Index, Parent: -1, Start: off + s, End: off + e})
		}
		return jr
	}
}

func (c *jobClock) ms(i int) float64 { return float64(c.end[i]-c.start[i]) / 1e6 }

// spans returns the timed jobs as spans on the clock's own time base.
func (c *jobClock) spans() []span {
	out := make([]span, len(c.start))
	for i := range out {
		out[i] = span{Name: "campaign.job", Req: c.base + i, Parent: -1, Start: c.start[i], End: c.end[i]}
	}
	return out
}

// campaignRig is one campaign's persistence: checkpoint, journal and
// artifact store (the CLI defaults plus artifacts).
type campaignRig struct {
	dir     string
	journal *autocat.Journal
	store   *autocat.ArtifactStore
}

func openCampaignRig(dir string) (*campaignRig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := autocat.OpenJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		return nil, err
	}
	store, err := autocat.OpenArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		j.Close()
		return nil, err
	}
	return &campaignRig{dir: dir, journal: j, store: store}, nil
}

func (r *campaignRig) checkpoint() string { return filepath.Join(r.dir, "campaign.jsonl") }

func (r *campaignRig) close() error {
	err := r.store.Close()
	if jerr := r.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// expectedCounts holds the attacks_found and catalog_size recorded for
// a search-campaign seed and run length ("<seconds>/<seed>" keys).
type expectedCounts struct {
	AttacksFound int `json:"attacks_found"`
	CatalogSize  int `json:"catalog_size"`
}

//go:embed expected_search.json
var expectedSearchJSON []byte

func loadExpected() (map[string]expectedCounts, error) {
	m := map[string]expectedCounts{}
	return m, json.Unmarshal(expectedSearchJSON, &m)
}

// replicateRun is one replicate's campaign and its job clock.
type replicateRun struct {
	res   *autocat.CampaignResult
	clock *jobClock
	start time.Duration // since the clock's origin
	wall  time.Duration
}

func runSearch(ctx context.Context, o opts) (*outcome, error) {
	out := newOutcome()
	expected, err := loadExpected()
	if err != nil {
		return nil, fmt.Errorf("recorded search counts: %w", err)
	}
	specs := make([]autocat.CampaignSpec, searchReplicates(o.seconds))
	var jobs []autocat.CampaignJob
	perSpec := 0
	for r := range specs {
		specs[r] = searchSpec(o.seed, r)
		js, _, err := specs[r].Expand()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
		perSpec = len(js)
	}

	rep := 0
	setup, err := medianSetup(searchSetupReps, func() (func() error, error) {
		rep++
		for _, spec := range specs {
			if _, _, err := spec.Expand(); err != nil {
				return nil, err
			}
		}
		r, err := openCampaignRig(filepath.Join(o.work, fmt.Sprintf("setup-%d", rep)))
		if err != nil {
			return nil, err
		}
		return r.close, nil
	})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup, searchSetupReps)

	// The replicates run one after another into one catalog, checkpoint,
	// journal and artifact store; each timing metric is the median over
	// replicates, so a burst of outside load moves one sample, not the
	// run's value.
	rig, err := openCampaignRig(filepath.Join(o.work, "campaign"))
	if err != nil {
		return nil, err
	}
	catalog := autocat.NewCatalog()
	runs := make([]replicateRun, len(specs))
	rss := startRSS()
	before := autocat.TakeMetricsSnapshot()
	for r, spec := range specs {
		clock := newJobClock(perSpec, r*perSpec, o.tr)
		rc := autocat.CampaignRunConfig{
			Workers:    nproc,
			Checkpoint: rig.checkpoint(),
			Journal:    rig.journal,
			Catalog:    catalog,
			Runner:     clock.wrap(campaign.NewExplorerRunner(campaign.RunnerOptions{Scale: 1, Artifacts: rig.store})),
		}
		start := time.Since(clock.t0)
		res, err := autocat.RunCampaign(ctx, spec, rc)
		if err != nil {
			rig.close()
			return nil, err
		}
		runs[r] = replicateRun{res: res, clock: clock, start: start, wall: time.Since(clock.t0) - start}
	}
	delta := metricsDelta{before, autocat.TakeMetricsSnapshot()}
	rss.finish(out)
	if err := rig.close(); err != nil {
		return nil, err
	}

	// Output checks: no failed job, the recorded counts for this seed,
	// and every stored artifact replaying bit-for-bit.
	found, completed := 0, 0
	var rate, good, p50, p90, tfr []float64
	for _, run := range runs {
		var lat, foundLat []float64
		ok := 0
		for i, jr := range run.res.Jobs {
			out.attempted++
			if jr.Error != "" || jr.JobID == "" {
				out.failed++
				out.fail("job %s: %q", jr.Name, jr.Error)
				continue
			}
			completed++
			ms := run.clock.ms(i)
			lat = append(lat, ms)
			if ms <= float64(searchLatencyLimit)/1e6 {
				ok++
			}
			if jr.Sequence != "" {
				found++
				foundLat = append(foundLat, ms/1e3)
			}
		}
		rate = append(rate, float64(run.res.Completed)/run.wall.Seconds())
		good = append(good, float64(ok)/run.wall.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		tfr = append(tfr, mean(foundLat))
	}
	size := catalog.Len()
	key := fmt.Sprintf("%d/%d", o.seconds, o.seed)
	if want, ok := expected[key]; ok {
		if found != want.AttacksFound || size != want.CatalogSize {
			out.fail("seed %s: found %d attacks in a catalog of %d, recorded %d in %d",
				key, found, size, want.AttacksFound, want.CatalogSize)
		}
	} else {
		out.note("no recorded counts for seed %s: found %d, catalog %d", key, found, size)
	}
	arts, err := replayArtifacts(filepath.Join(rig.dir, "artifacts"), out)
	if err != nil {
		return nil, err
	}

	n := len(jobs)
	out.set("time_to_first_reliable_s", quantile(tfr, 0.5), found)
	out.set("steps_to_first_reliable", ratio(delta.counter("env.steps_total"), float64(found)), found)
	out.set("jobs_per_s", quantile(rate, 0.5), completed)
	out.set("attacks_found", float64(found), n)
	out.set("catalog_size", float64(size), found)
	out.set("goodput_rps", quantile(good, 0.5), completed)
	out.set("latency_ms_p50", quantile(p50, 0.5), completed)
	out.set("latency_ms_p90", quantile(p90, 0.5), completed)
	out.set("admitted_share", 1, n)
	out.set("success_share", float64(completed)/float64(n), n)

	if o.tr != nil {
		setLayerCounters(out, delta)
		var jms []float64
		var wall, self float64
		for _, run := range runs {
			spans := run.clock.spans()
			jms = append(jms, durationsMS(spans)...)
			lo := int64(run.start)
			wall += run.wall.Seconds() * 1e3
			self += float64(int64(run.wall)-covered(spans, lo, lo+int64(run.wall))) / 1e6
		}
		out.set("campaign.job_ms_p50", quantile(jms, 0.5), len(jms))
		out.set("campaign.job_ms_p90", quantile(jms, 0.9), len(jms))
		out.set("campaign.self_ms", self, len(runs))
		if fi, err := os.Stat(rig.checkpoint()); err == nil {
			out.set("campaign.checkpoint_bytes", float64(fi.Size()), 1)
		}
		out.set("campaign.journal_events", delta.counter("journal.events_total"), 1)
		out.set("campaign.artifacts", float64(arts), 1)
		novel := delta.counter("catalog.novel_total")
		out.set("catalog.novel_ratio", ratio(novel, novel+delta.counter("catalog.rediscoveries_total")), found)
		if err := searchLayer(ctx, o, out, jobs); err != nil {
			return nil, err
		}
		var cfgs []autocat.EnvConfig
		for _, j := range sample(jobs, searchProbeJobs) {
			cfgs = append(cfgs, j.Scenario.Env)
		}
		ns, steps := envProbe(cfgs, o.seed)
		out.set("env.ns_per_step", ns, steps)
		out.set("trace.headline_ms", ratio(1e3, out.values["jobs_per_s"]), completed)
		// The blocking path of a campaign is its jobs plus the runner's
		// own time between them, which campaign.self_ms is by definition.
		out.set("trace.wall_ms", wall, len(runs))
		out.set("trace.unaccounted_ms", 0, len(runs))
	}
	return out, nil
}

// replayArtifacts replays every stored artifact (untimed) and fails the
// run on any that does not reproduce; it returns the artifact count.
func replayArtifacts(dir string, out *outcome) (int, error) {
	store, err := autocat.OpenArtifactStore(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	reps, err := store.VerifyAll()
	if err != nil {
		return 0, fmt.Errorf("replay artifacts: %w", err)
	}
	for _, r := range reps {
		if !r.Match {
			out.fail("artifact %s replays %q, recorded %q", r.Artifact.ID, r.Sequence, r.Artifact.Sequence)
		}
	}
	return len(reps), nil
}

// searchProbeJobs caps the direct search pass and the env probe of a
// traced run.
const searchProbeJobs = 128

// sample picks at most n jobs at an even stride, so every axis of the
// grid is represented.
func sample(jobs []autocat.CampaignJob, n int) []autocat.CampaignJob {
	if len(jobs) <= n {
		return jobs
	}
	out := make([]autocat.CampaignJob, n)
	for i := range out {
		out[i] = jobs[i*len(jobs)/n]
	}
	return out
}

// searchLayer times the search layer at its boundary: the search
// backend run directly, after the measured section, on the scenarios of
// the first searchProbeJobs jobs.
func searchLayer(ctx context.Context, o opts, out *outcome, jobs []autocat.CampaignJob) error {
	backend := autocat.NewSearchBackend(autocat.SearchBackendOptions{})
	var ms []float64
	var total time.Duration
	candidates, found, walker := 0, 0, 0
	jobs = sample(jobs, searchProbeJobs)
	for _, j := range jobs {
		cfg := j.Scenario.Env
		i := o.tr.begin("search.explore", j.Index, -1)
		t0 := time.Now()
		res, err := backend.Explore(ctx, cfg)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("search %s: %w", j.Scenario.Name, err)
		}
		o.tr.end(i, res.Search.Sequences)
		ms = append(ms, float64(d)/1e6)
		total += d
		candidates += res.Search.Sequences
		if res.Search.Found {
			found++
		}
		if walks, err := walkerApplies(cfg); err != nil {
			return err
		} else if walks {
			walker++
		}
	}
	n := len(jobs)
	out.set("search.explore_ms_p50", quantile(ms, 0.5), n)
	out.set("search.explore_ms_p90", quantile(ms, 0.9), n)
	out.set("search.candidates", float64(candidates), n)
	out.set("search.candidates_per_s", ratio(float64(candidates), total.Seconds()), n)
	out.set("search.found_share", ratio(float64(found), float64(n)), n)
	out.set("search.walker_share", ratio(float64(walker), float64(n)), n)
	return nil
}

// walkerApplies reports whether the search layer takes its incremental
// trie walker on cfg (replay-deterministic and snapshot-capable, with
// the warm-up the search backend always disables) rather than the
// re-simulating scan.
func walkerApplies(cfg autocat.EnvConfig) (bool, error) {
	cfg.Warmup = -1
	e, err := autocat.NewEnv(cfg)
	if err != nil {
		return false, err
	}
	return e.SnapshotSupported() && e.ReplayDeterministic(), nil
}
