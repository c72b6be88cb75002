package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"autocat"
	"autocat/internal/campaign"
)

const (
	// serveRate is the offered request rate; every serveGetEvery-th
	// request is a catalog read, the rest are campaign submissions, and
	// every second submission repeats an earlier spec. At 36 s a run
	// makes 101 fresh submissions, enough for a p90 with ten beyond it;
	// one arrives every ~130 ms, well after the previous one is done.
	serveRate     = 7.5
	serveGetEvery = 4
	// serveLatencyLimit is the goodput limit on one request, timed from
	// when it was due.
	serveLatencyLimit = 1500 * time.Millisecond
	serveSetupReps    = 41
	// serveRepeatLag keeps repeats off the most recent fresh specs.
	serveRepeatLag = 2
)

// serveReq is one scheduled request and what the client saw of it.
type serveReq struct {
	id      int
	due     time.Duration // offset from the schedule start
	get     bool          // a catalog read, not a submission
	spec    int           // index into the fresh specs (submissions)
	repeat  bool          // the spec was submitted before
	refused bool          // no free stream, or the service answered 503

	sent, started, firstJob, firstAttack, done time.Duration // 0 when not seen
	jobs, attacks                              int
	sequences                                  map[string]string // job ID -> sequence
	err                                        error
}

// serveGeometries are a fresh submission's caches, the largest first so
// that two workers finish its three jobs in about the largest one's
// time.
var serveGeometries = []autocat.CacheConfig{searchGeometries[0], searchGeometries[3], searchGeometries[2]}

// serveSpec is the i-th fresh submission: three search jobs, one per
// serveGeometries entry, with the attacker range 1-4, a policy that
// rotates through LRU/PLRU/RRIP and an env seed no other fresh spec
// shares. Every fresh spec has the same shape, so fresh latencies form
// one cluster (about 55 ms on 2 vCPUs) whose median is its compute, not
// the wake-up jitter a shared host adds to every request. The workload
// seed sets the env seeds.
func serveSpec(seed int64, i int) autocat.CampaignSpec {
	return autocat.CampaignSpec{
		Name:           fmt.Sprintf("perfbench-serve-%d", i),
		Caches:         serveGeometries,
		Policies:       []autocat.PolicyKind{searchPolicies[i%3]},
		Attackers:      []autocat.CampaignAddrRange{searchAttackers[1]},
		Victims:        []autocat.CampaignAddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{autocat.CampaignExplorerSearch},
		Seeds:          []int64{1000*seed + int64(i) + 1},
		FlushEnable:    true,
		VictimNoAccess: true,
	}
}

// serveSchedule generates the run's requests and fresh specs.
func serveSchedule(seed int64, seconds int) ([]*serveReq, [][]byte, []autocat.CampaignSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * float64(seconds)))
	var reqs []*serveReq
	var bodies [][]byte
	var specs []autocat.CampaignSpec
	posts := 0
	for i := 0; i < max(n, 2); i++ {
		r := &serveReq{id: i, due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		switch {
		case i%serveGetEvery == serveGetEvery-1:
			r.get = true
		case posts%2 == 1:
			// Repeat a spec whose first submission is likely done, so the
			// repeat reads the result cache rather than joining a flight.
			r.repeat, r.spec = true, rng.Intn(max(1, len(specs)-serveRepeatLag))
			posts++
		default:
			spec := serveSpec(seed, len(specs))
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, nil, nil, err
			}
			r.spec = len(specs)
			specs = append(specs, spec)
			bodies = append(bodies, body)
			posts++
		}
		reqs = append(reqs, r)
	}
	return reqs, bodies, specs, nil
}

// service is one in-process campaign service on a loopback listener.
type service struct {
	srv  *http.Server
	base string
	done chan error
}

func startService(cfg autocat.ServeConfig) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  &http.Server{Handler: autocat.NewCampaignServer(cfg).Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the service down and waits for its serve loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
}

func runServe(ctx context.Context, o opts) (*outcome, error) {
	out := newOutcome()
	reqs, bodies, specs, err := serveSchedule(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	cfg := autocat.ServeConfig{MaxCampaigns: nproc}
	if o.tr != nil {
		cfg.Runner = newJobClock(0, 0, o.tr).wrap(campaign.NewExplorerRunner(campaign.RunnerOptions{Scale: 1}))
	}

	client := newClient()
	defer client.CloseIdleConnections()
	// Set-up ends when the service answers its first request.
	setup, err := medianSetup(serveSetupReps, func() (func() error, error) {
		s, err := startService(cfg)
		if err != nil {
			return nil, err
		}
		resp, err := client.Get(s.base + "/healthz")
		if err != nil {
			return nil, errors.Join(err, s.stop())
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return s.stop, nil
	})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup, serveSetupReps)

	svc, err := startService(cfg)
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	before := autocat.TakeMetricsSnapshot()
	start := time.Now()
	var lagMax time.Duration
	slots := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for _, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		select {
		case slots <- struct{}{}:
		default:
			r.refused = true
			continue
		}
		lagMax = max(lagMax, time.Since(start)-r.due)
		wg.Add(1)
		go func(r *serveReq) {
			defer wg.Done()
			defer func() { <-slots }()
			if r.get {
				r.sent = time.Since(start)
				r.err = getCatalog(ctx, client, svc.base, nil)
				r.done = time.Since(start)
				return
			}
			r.err = submit(ctx, client, svc.base, bodies[r.spec], start, r)
		}(r)
	}
	wg.Wait()
	wall := time.Since(start)
	delta := metricsDelta{before, autocat.TakeMetricsSnapshot()}
	rss.finish(out)
	var catalog struct {
		Len int `json:"len"`
	}
	err = getCatalog(ctx, client, svc.base, &catalog)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Output checks: every admitted stream ends in a clean done event,
	// catalog reads succeed, and a repeated spec returns the sequences
	// its first completed submission returned. Every request is timed
	// from when it was due; the latency percentiles are those of the
	// fresh submissions, the requests that run jobs. Reads and cached
	// repeats answer in a millisecond or two, which on a shared host is
	// mostly wake-up jitter, and they count in goodput.
	first := map[int]*serveReq{}
	var lat, admit, firstJob, tfr []float64
	posts, refused, repeats, good, jobs, attacks := 0, 0, 0, 0, 0, 0
	for _, r := range reqs {
		out.attempted++
		fresh := !r.get && !r.repeat
		if !r.get {
			posts++
			if r.repeat {
				repeats++
			}
		}
		if r.refused {
			// A refused request is never served within the run.
			refused++
			if fresh {
				lat = append(lat, float64(o.seconds)*1e3)
			}
			continue
		}
		if r.err != nil {
			out.failed++
			out.fail("request %d: %v", r.id, r.err)
			continue
		}
		l := r.done - r.due
		if fresh {
			lat = append(lat, float64(l)/1e6)
		}
		if l <= serveLatencyLimit {
			good++
		}
		if r.get {
			continue
		}
		jobs += r.jobs
		attacks += r.attacks
		admit = append(admit, float64(r.started-r.sent)/1e6)
		firstJob = append(firstJob, float64(r.firstJob-r.sent)/1e6)
		if r.firstAttack > 0 && fresh {
			tfr = append(tfr, (r.firstAttack - r.due).Seconds())
		}
		if f, ok := first[r.spec]; !ok {
			first[r.spec] = r
		} else if !maps.Equal(f.sequences, r.sequences) {
			out.failed++
			out.fail("request %d repeats spec %d but returned other sequences", r.id, r.spec)
		}
	}
	n := len(reqs)
	out.set("time_to_first_reliable_s", mean(tfr), len(tfr))
	out.set("steps_to_first_reliable", ratio(delta.counter("env.steps_total"), float64(attacks)), attacks)
	out.set("jobs_per_s", float64(jobs)/wall.Seconds(), jobs)
	out.set("attacks_found", float64(attacks), jobs)
	out.set("catalog_size", float64(catalog.Len), 1)
	out.set("goodput_rps", float64(good)/wall.Seconds(), len(reqs))
	out.set("latency_ms_p50", quantile(lat, 0.5), len(lat))
	out.set("latency_ms_p90", quantile(lat, 0.9), len(lat))
	out.set("admitted_share", float64(n-refused)/float64(n), n)
	out.set("success_share", float64(n-refused-out.failed)/float64(n), n)

	if o.tr != nil {
		setLayerCounters(out, delta)
		out.set("serve.admit_ms_p50", quantile(admit, 0.5), len(admit))
		out.set("serve.admit_ms_p90", quantile(admit, 0.9), len(admit))
		out.set("serve.first_job_ms_p50", quantile(firstJob, 0.5), len(firstJob))
		dedup := delta.counter("serve.singleflight_hits_total") + delta.counter("serve.result_cache_hits_total")
		out.set("serve.dedup_share", ratio(dedup, float64(jobs)), jobs)
		out.set("serve.repeat_share", ratio(float64(repeats), float64(posts)), posts)
		out.set("serve.generator_lag_ms_max", float64(lagMax)/1e6, n-refused)
		jobSpans := o.tr.named("campaign.job")
		jms := durationsMS(jobSpans)
		out.set("campaign.job_ms_p50", quantile(jms, 0.5), len(jms))
		out.set("campaign.job_ms_p90", quantile(jms, 0.9), len(jms))
		novel := delta.counter("catalog.novel_total")
		out.set("catalog.novel_ratio", ratio(novel, novel+delta.counter("catalog.rediscoveries_total")), attacks)
		var sjobs []autocat.CampaignJob
		for _, s := range specs {
			js, _, err := s.Expand()
			if err != nil {
				return nil, err
			}
			sjobs = append(sjobs, js...)
		}
		if err := searchLayer(ctx, o, out, sjobs); err != nil {
			return nil, err
		}
		var cfgs []autocat.EnvConfig
		for _, j := range sample(sjobs, searchProbeJobs) {
			cfgs = append(cfgs, j.Scenario.Env)
		}
		ns, steps := envProbe(cfgs, o.seed)
		out.set("env.ns_per_step", ns, steps)
		out.set("trace.headline_ms", out.values["latency_ms_p90"], len(lat))
		// A submission's latency is generator lag, admission and the
		// streamed run; the client sees each boundary.
		sum, parts := 0.0, 0.0
		for _, r := range reqs {
			if r.refused || r.get || r.err != nil {
				continue
			}
			sum += float64(r.done-r.due) / 1e6
			parts += float64((r.sent-r.due)+(r.started-r.sent)+(r.done-r.started)) / 1e6
		}
		out.set("trace.wall_ms", float64(wall)/1e6, 1)
		out.set("trace.unaccounted_ms", sum-parts, 1)
		for _, r := range reqs {
			if r.refused || r.get {
				continue
			}
			o.tr.record(span{Name: "serve.request", Req: r.id, Parent: -1, Start: int64(r.sent), End: int64(r.done)})
			o.tr.record(span{Name: "serve.admit", Req: r.id, Parent: -1, Start: int64(r.sent), End: int64(r.started)})
		}
	}
	return out, nil
}

// submit POSTs one campaign and reads its event stream to the end,
// recording when each boundary was crossed.
func submit(ctx context.Context, client *http.Client, base string, body []byte, start time.Time, r *serveReq) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return err
	}
	r.sent = time.Since(start)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		r.refused = true
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	r.sequences = map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last autocat.ServeEvent
	for sc.Scan() {
		var ev autocat.ServeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("decode event: %w", err)
		}
		now := time.Since(start)
		switch ev.Event {
		case "start":
			r.started = now
		case "job":
			if r.firstJob == 0 {
				r.firstJob = now
			}
			r.jobs++
			if ev.Result != nil {
				r.sequences[ev.Result.JobID] = ev.Result.Sequence
				if ev.Result.Sequence != "" {
					r.attacks++
					if r.firstAttack == 0 {
						r.firstAttack = now
					}
				}
			}
		case "done":
			r.done = now
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		return err
	}
	switch {
	case last.Event != "done":
		return fmt.Errorf("stream ended after %q, not done", last.Event)
	case last.Error != "" || last.Failed != 0:
		return fmt.Errorf("campaign done with %d failed jobs: %s", last.Failed, last.Error)
	case r.jobs != last.Total:
		return fmt.Errorf("stream carried %d of %d job events", r.jobs, last.Total)
	}
	return nil
}

// getCatalog reads the shared catalog, decoding it into v when non-nil.
func getCatalog(ctx context.Context, client *http.Client, base string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/catalog?limit=0", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("catalog: status %d", resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
