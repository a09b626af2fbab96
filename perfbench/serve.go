package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/core/executor"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/service"
)

// serveTenants is how many tenants the arrival schedule spreads over.
const serveTenants = 4

// serveRate is the fixed arrival rate of the measured phase, in jobs per
// second: a sixth of the rate at which the service saturates on a 2-CPU
// host (450-550 jobs/s). Fewer jobs then overlap a garbage collection,
// which keeps the p90 off the edge between jobs a collection slowed and
// jobs it did not; at 150 jobs/s the p90 varied by up to 27% (quartile
// distance over median) across ten seeds.
const serveRate = 75

// serveP99LimitMS is the p99 latency limit sustainable_rate_s is held
// to: a quarter second, the usual bound for an interactive response.
const serveP99LimitMS = 250

// maxLagP99MS marks a run invalid: if the generator started jobs later
// than this at the p99 of the measured phase, it could not keep its
// schedule and the latencies say little about the service.
const maxLagP99MS = 100

// serveSQL are the RheemQL jobs of the mix, over the service's default
// catalog (sensors and words, 20k rows each). Every query orders its
// output so the result bytes are reproducible.
var serveSQL = []string{
	"SELECT well, COUNT(*) AS n, MAX(pressure) AS pmax FROM sensors WHERE hour < 32 GROUP BY well ORDER BY well",
	"SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word",
	"SELECT COUNT(*) AS n FROM sensors WHERE pressure > 150 AND flow < 15",
	"SELECT well, hour, pressure FROM sensors WHERE pressure > 252 ORDER BY pressure DESC LIMIT 10",
}

// serveSpecs is the job mix: the SQL jobs plus two variants each of the
// wordcount, sensor and fanout built-ins, seeded from the run's seed.
func serveSpecs(seed uint64) []service.Spec {
	var specs []service.Spec
	for _, q := range serveSQL {
		specs = append(specs, service.Spec{Kind: service.KindSQL, Query: q})
	}
	for i := uint64(0); i < 2; i++ {
		specs = append(specs,
			service.Spec{Kind: service.KindWorkload, Workload: service.WorkloadWordcount, N: 2000, Seed: seed + i},
			service.Spec{Kind: service.KindWorkload, Workload: service.WorkloadSensor, N: 2000, Seed: seed + i},
			service.Spec{Kind: service.KindWorkload, Workload: service.WorkloadFanout, N: 64, Branches: 3, Seed: seed + i},
		)
	}
	return specs
}

// specName labels spec i of the mix in the span dump.
func specName(specs []service.Spec, i int) string {
	if specs[i].Kind == service.KindSQL {
		return fmt.Sprintf("sql-%d", i)
	}
	return fmt.Sprintf("%s-%d", specs[i].Workload, i)
}

// offlineDigests runs every spec once on a separate context and catalog
// and returns the result digests jobs must reproduce.
func offlineDigests(specs []service.Spec) ([]string, error) {
	rc, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return nil, err
	}
	cat, err := service.DefaultCatalog(0)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(specs))
	for i := range specs {
		p, err := specs[i].BuildPlan(fmt.Sprintf("offline-%d", i), cat)
		if err != nil {
			return nil, err
		}
		recs, _, err := rc.Execute(p)
		if err != nil {
			return nil, err
		}
		if out[i], err = service.Digest(recs); err != nil {
			return nil, err
		}
		releaseTemp(rc)
	}
	return out, nil
}

// arrival is one job of the precomputed open-loop schedule.
type arrival struct {
	due    time.Duration // offset from the phase start
	tenant string
	spec   int // index into the spec mix
}

// schedule draws n Poisson arrivals at rate jobs/s from the seed, each
// with a tenant and a spec out of nSpecs.
func schedule(seed uint64, rate float64, n, nSpecs int) []arrival {
	r := rand.New(rand.NewPCG(seed, seed^0xa771))
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += r.ExpFloat64() / rate
		out[i] = arrival{
			due:    time.Duration(at * float64(time.Second)),
			tenant: fmt.Sprintf("tenant-%d", r.IntN(serveTenants)),
			spec:   r.IntN(nSpecs),
		}
	}
	return out
}

// server is one running job service with its HTTP listener.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
}

// startServer starts the service with rheem-serve's defaults
// (calibration and flight recorder on, 4 active jobs, pool = NumCPU) on
// a loopback port.
func startServer() (*server, error) {
	svc, err := service.New(service.Config{Calibration: true})
	if err != nil {
		return nil, err
	}
	srv, addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		svc.Kill()
		svc.Close()
		return nil, err
	}
	return &server{svc: svc, http: srv, base: "http://" + addr}, nil
}

// stop drains the service and closes its listener.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	s.svc.Close()
	s.http.Close()
}

// jobTiming is one job's client-side timeline plus the server's
// timestamps from its final status.
type jobTiming struct {
	spec                 int
	due, sent, ack, seen time.Time
	done                 time.Time
	status               service.JobStatus
	polls                int
	shed                 bool
	err                  error
}

func (j *jobTiming) latency() time.Duration { return j.done.Sub(j.due) }

// loadClient submits jobs over at most two connections.
type loadClient struct {
	http    *http.Client
	base    string
	specs   []service.Spec
	digests []string
}

func newLoadClient(base string, specs []service.Spec, digests []string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, specs: specs, digests: digests}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// getJSON fetches url and decodes a JSON body into v.
func (c *loadClient) getJSON(url string, v any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// pollInterval is how long the poller sleeps between sweeps over the
// jobs it is waiting for.
const pollInterval = 250 * time.Microsecond

// submit posts one job at its due time. It returns the job's timing with
// the admission status, or with err set if the job was not accepted.
func (c *loadClient) submit(a arrival, due time.Time) (*jobTiming, service.JobStatus) {
	j := &jobTiming{spec: a.spec, due: due}
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	j.sent = time.Now()
	var st service.JobStatus
	body, err := json.Marshal(service.Request{Tenant: a.tenant, Spec: c.specs[a.spec]})
	if err != nil {
		j.err = err
		return j, st
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j, st
	}
	ackBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.ack = time.Now()
	switch {
	case err != nil:
		j.err = err
	case resp.StatusCode == http.StatusTooManyRequests:
		j.shed = true
		j.err = fmt.Errorf("shed: %s", bytes.TrimSpace(ackBody))
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(ackBody))
	default:
		j.err = json.Unmarshal(ackBody, &st)
	}
	return j, st
}

// poll fetches the job's status once; when the job is terminal it also
// fetches and checks the result, and reports true.
func (c *loadClient) poll(j *jobTiming, id string) bool {
	j.polls++
	var st service.JobStatus
	if err := c.getJSON(c.base+"/jobs/"+id, &st); err != nil {
		j.err = err
		return true
	}
	switch st.State {
	case service.StateQueued, service.StateRunning:
		return false
	}
	j.seen = time.Now()
	j.status = st
	if st.State != service.StateSucceeded {
		j.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Err)
		return true
	}
	var res struct {
		Records int    `json:"records"`
		Digest  string `json:"digest"`
	}
	if err := c.getJSON(c.base+"/jobs/"+id+"/result", &res); err != nil {
		j.err = err
		return true
	}
	j.done = time.Now()
	if res.Digest != c.digests[j.spec] || res.Records != st.Records {
		j.err = fmt.Errorf("job %s (spec %d): digest %s, want %s", id, j.spec, res.Digest, c.digests[j.spec])
	}
	return true
}

// openLoop runs the arrivals due before dur on two goroutines: one
// submits each job at its due time, the other polls the accepted jobs
// until they are terminal and fetches their results. Each uses one
// connection. Jobs are timed from their due time, so a submitter that
// falls behind its schedule adds its lateness to every job it delays.
func (c *loadClient) openLoop(arrivals []arrival, dur time.Duration, onDone func(*jobTiming)) []*jobTiming {
	type accepted struct {
		j  *jobTiming
		id string
	}
	n := 0
	for n < len(arrivals) && arrivals[n].due < dur {
		n++
	}
	results := make([]*jobTiming, n)
	// Sized to the number of sends, so the submitter never blocks.
	queue := make(chan accepted, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := 0; i < n; i++ {
			j, st := c.submit(arrivals[i], start.Add(arrivals[i].due))
			results[i] = j
			if j.err == nil {
				queue <- accepted{j, st.ID}
			}
		}
	}()
	var pending []accepted
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			a, ok := <-queue
			if !ok {
				break
			}
			pending = append(pending, a)
		}
	drain:
		for open {
			select {
			case a, ok := <-queue:
				if !ok {
					open = false
					break drain
				}
				pending = append(pending, a)
			default:
				break drain
			}
		}
		kept := pending[:0]
		for _, a := range pending {
			if !c.poll(a.j, a.id) {
				kept = append(kept, a)
			} else if onDone != nil {
				onDone(a.j)
			}
		}
		pending = kept
		if len(pending) > 0 {
			time.Sleep(pollInterval)
		}
	}
	wg.Wait()
	return results
}

// serveLadder are the arrival rates, in jobs per second, the
// sustainable-rate search steps through after the measured phase, until
// one misses the p99 limit.
var serveLadder = []float64{350, 400, 450, 500, 550, 600, 650, 700, 800}

// phase is the outcome of one open-loop phase at a fixed rate.
type phase struct {
	rate       float64
	jobs       []*jobTiming
	lats, lags []float64
	failed     int
	shed       int
}

// runPhase runs arrivals from the seed at rate for dur and checks every
// job. Jobs that failed count in out; shed jobs count there only when
// shedFails is set — the sustainable-rate search overloads the service
// on purpose, and shedding is how its steps end.
func (c *loadClient) runPhase(seed uint64, rate float64, dur time.Duration, out *outcome, shedFails bool, onDone func(*jobTiming)) *phase {
	n := int(rate*dur.Seconds()*1.5) + 100
	p := &phase{rate: rate, jobs: c.openLoop(schedule(seed, rate, n, len(c.specs)), dur, onDone)}
	for _, j := range p.jobs {
		if shedFails || !j.shed {
			out.attempted++
		}
		if j.err != nil {
			p.failed++
			if j.shed {
				p.shed++
			}
			if shedFails || !j.shed {
				out.fail("%v", j.err)
			}
			continue
		}
		p.lats = append(p.lats, ms(j.latency()))
		p.lags = append(p.lags, ms(j.sent.Sub(j.due)))
	}
	return p
}

// p99 is the phase's p99 latency, counting a failed or shed job as
// missing every limit: the p99 is infinite once more than 1% failed.
func (p *phase) p99() float64 {
	lats := append([]float64(nil), p.lats...)
	for i := 0; i < p.failed; i++ {
		lats = append(lats, math.Inf(1))
	}
	if len(lats) == 0 {
		return math.Inf(1)
	}
	return percentile(lats, 99)
}

// sustainableRate interpolates the rate at which the p99 latency crosses
// limitMS between the last phase that met the limit and the first that
// missed it; phases are in ascending rate order. A phase whose p99 is
// infinite (over 1% of its jobs failed or were shed) counts as twice
// the limit. If even the first phase misses the limit, its rate is
// scaled down in proportion; if none does, the highest rate tried is
// the answer.
func sustainableRate(phases []*phase, limitMS float64) float64 {
	for i, p := range phases {
		hi := min(p.p99(), 2*limitMS)
		if hi <= limitMS {
			continue
		}
		if i == 0 {
			return p.rate * limitMS / hi
		}
		lo := phases[i-1]
		loP := lo.p99()
		return lo.rate + (p.rate-lo.rate)*(limitMS-loP)/(hi-loP)
	}
	return phases[len(phases)-1].rate
}

// checkLag returns the measured phase's p99 submit lateness, or an
// error marking the run invalid when the generator fell behind.
func checkLag(p *phase) (float64, error) {
	lag := percentile(p.lags, 99)
	if lag > maxLagP99MS {
		return lag, fmt.Errorf("invalid run: the load generator started jobs up to %.1f ms late (p99), over the %d ms it may", lag, maxLagP99MS)
	}
	return lag, nil
}

// serveSetup is one ready serve-small-jobs run: the service, the job mix
// and its offline digests.
type serveSetup struct {
	srv     *server
	specs   []service.Spec
	digests []string
}

func runServeSmallJobs(cfg runConfig) (*outcome, error) {
	srv, setupS, err := medianSetup(startServer, func(s *server) { s.stop() })
	if err != nil {
		return nil, fmt.Errorf("serve-small-jobs setup: %w", err)
	}
	defer srv.stop()
	specs := serveSpecs(cfg.seed)
	digests, err := offlineDigests(specs)
	if err != nil {
		return nil, fmt.Errorf("serve-small-jobs offline digests: %w", err)
	}
	c := newLoadClient(srv.base, specs, digests)
	defer c.close()
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	// Warm-up at the measured rate, checked but not measured.
	c.runPhase(cfg.seed^0x77a3, serveRate, time.Second, out, true, nil)
	if cfg.trace {
		return out, tracedServe(cfg, &serveSetup{srv: srv, specs: specs, digests: digests}, c, out)
	}

	// The measured phase: a fixed rate for 60% of the run.
	rec := srv.svc.FlightRecorder()
	var sim time.Duration
	var simJobs int
	onDone := func(j *jobTiming) {
		if j.err != nil {
			return
		}
		if r, ok := rec.Get(j.status.RunID); ok {
			for _, sp := range r.Spans {
				if sp.Kind == trace.KindAtom {
					sim += sp.Metrics.Sim
				}
			}
			simJobs++
		}
	}
	dur := cfg.duration() * 6 / 10
	runtime.GC()
	before := readMem()
	measured := c.runPhase(cfg.seed, serveRate, dur, out, true, onDone)
	after := readMem()
	m := out.metrics
	n := len(measured.lats)
	if n == 0 || simJobs == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	lagP99, err := checkLag(measured)
	if err != nil {
		return nil, err
	}
	m["throughput_ops_s"] = float64(n) / dur.Seconds()
	latencyMetrics(m, measured.lats)
	m["sim_ms_per_op"] = ms(sim) / float64(simJobs)
	runtimeMetrics(m, before, after, n)
	m["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(srv)

	// The sustainable-rate search: ladder steps of a twelfth of the run
	// each, stopping at the first step over the limit.
	phases := []*phase{measured}
	step := cfg.duration() / 12
	for i, rate := range serveLadder {
		p := c.runPhase(cfg.seed+uint64(i)+1, rate, step, out, false, nil)
		phases = append(phases, p)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %4.0f jobs/s: %d jobs, p99 %.1f ms, %d shed\n", rate, len(p.jobs), p.p99(), p.shed)
		if p.p99() > serveP99LimitMS {
			break
		}
	}
	m["sustainable_rate_s"] = sustainableRate(phases, serveP99LimitMS)
	m["ops_ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs at %d jobs/s, lag p99 %.2f ms\n", n, serveRate, lagP99)
	return out, nil
}

// tracedServe runs the open loop at the measured rate and splits every
// job's latency over the client, the service and the engine layers,
// then probes the engine layers of each spec of the mix directly on the
// service's engine.
func tracedServe(cfg runConfig, s *serveSetup, c *loadClient, out *outcome) error {
	log := &spanLog{}
	jobs := newLayerStats()
	rec := s.srv.svc.FlightRecorder()
	var submit, queueWait, run, fetch, dispatch, pollDelay time.Duration
	polls := 0
	onDone := func(j *jobTiming) {
		if j.err != nil {
			return
		}
		r, ok := rec.Get(j.status.RunID)
		if !ok {
			out.fail("job %s: run %d not in the flight recorder", j.status.ID, j.status.RunID)
			return
		}
		// The job's timeline, cut into disjoint layers. The server's
		// timestamps arrive as wall-clock JSON, so every point is read
		// on the wall clock and the server's are clamped into the
		// client's order of events.
		due, sent, ack := j.due.Round(0), j.sent.Round(0), j.ack.Round(0)
		started := later(ack, j.status.Started)
		ended := later(started, j.status.Ended)
		seen := later(ended, j.seen.Round(0))
		done := later(seen, j.done.Round(0))
		spans := executorSpans(r.Spans)
		lo := later(started, r.Profile.StartedAt.Round(0))
		hi := later(lo, earlier(ended, r.Profile.EndedAt.Round(0)))
		op := int(j.status.RunID)
		t := newOpTrace(log, op, specName(c.specs, j.spec))
		t.layers["loadgen.lag"] = sent.Sub(due)
		t.layers["service.submit"] = ack.Sub(sent)
		t.layers["service.queue"] = started.Sub(ack)
		t.layers["service.dispatch"] = ended.Sub(started) - hi.Sub(lo)
		t.layers["loadgen.poll_delay"] = seen.Sub(ended)
		t.layers["service.result_fetch"] = done.Sub(seen)
		// The critical path is rescaled to the clamped run window, so its
		// share of that window is the profile's share of the whole run.
		prof := profile.Build(0, t.name, r.Profile.StartedAt, r.Profile.EndedAt, "", spans)
		jobs.addExec(t, analyzeSpans(spans, lo, hi), r.Audits,
			time.Duration(float64(prof.CriticalPathNS)*float64(hi.Sub(lo))/float64(max(prof.WallNS, 1))), 0)
		if other := jobs.addOp(done.Sub(due), t); other != 0 {
			out.fail("job %s: layers sum to %s less than its latency", j.status.ID, other)
		}
		log.addBench(op, t.name, "op", j.due, j.done)
		log.addEngine(op, spans)
		submit += ack.Sub(sent)
		queueWait += j.status.Started.Sub(j.status.Submitted)
		run += j.status.Ended.Sub(j.status.Started)
		fetch += done.Sub(seen)
		dispatch += t.layers["service.dispatch"]
		pollDelay += seen.Sub(ended)
		polls += j.polls
	}
	runtime.GC()
	before := readMem()
	measured := c.runPhase(cfg.seed, serveRate, cfg.duration(), out, true, onDone)
	after := readMem()
	lagP99, err := checkLag(measured)
	if err != nil {
		return err
	}
	m := out.metrics
	if err := jobs.finish(m); err != nil {
		return err
	}
	n := float64(jobs.ops)
	runtimeMetrics(m, before, after, jobs.ops)
	m["loadgen.lag_p99_ms"] = lagP99
	m["service.submit_us"] = us(submit) / n
	m["service.queue_wait_ms"] = ms(queueWait) / n
	m["service.run_ms"] = ms(run) / n
	m["service.dispatch_ms"] = ms(dispatch) / n
	m["service.result_fetch_us"] = us(fetch) / n
	m["loadgen.poll_delay_ms"] = ms(pollDelay) / n
	m["service.poll_useful_ratio"] = n / float64(polls)
	m["service.shed_ratio"] = float64(measured.shed) / float64(len(measured.jobs))
	m["relengine.temp_rows_per_op"] = float64(releaseTemp(s.srv.svc.Engine())) / n

	probe, overhead, err := serveProbe(s, log, cfg.duration()/5, out)
	if err != nil {
		return err
	}
	pm := map[string]float64{}
	if err := probe.finish(pm); err != nil {
		return err
	}
	for name, v := range pm {
		if strings.HasPrefix(name, "rheemql.") || strings.HasPrefix(name, "optimizer.") ||
			name == "plan.build_us" || name == "physical.lower_us" {
			m[name] = v
		}
	}
	m["trace.overhead_pct"] = overhead
	m["ops_failed_ratio"] = float64(out.failed) / float64(out.attempted)
	m["ops_bytes_identical_ratio"] = 1 // every job's digest is checked exactly
	out.spans = log
	return nil
}

// serveProbe runs each spec of the mix through the user path and then
// through the engine's layers one by one on the service's own engine
// and scheduler pool, for dur. Both must reproduce the offline digest.
// It returns the layer stats of the traced runs and the traced path's
// overhead over the user path in percent.
func serveProbe(s *serveSetup, log *spanLog, dur time.Duration, out *outcome) (*layerStats, float64, error) {
	cat, err := service.DefaultCatalog(0)
	if err != nil {
		return nil, 0, err
	}
	svc := s.srv.svc
	eng := svc.Engine()
	const atomTimeout = 10 * time.Second // the service default
	userOpts := []rheem.RunOption{rheem.WithSchedulerPool(svc.SchedulerPool()), rheem.WithFailover(true), rheem.WithAtomTimeout(atomTimeout)}
	base := executor.Options{Pool: svc.SchedulerPool(), Failover: true, AtomTimeout: atomTimeout}
	ls := newLayerStats()
	var userTotal, tracedTotal time.Duration
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) || i < len(s.specs); i++ {
		k := i % len(s.specs)
		spec := s.specs[k]
		name := "probe-" + specName(s.specs, k)
		out.attempted++
		t0 := time.Now()
		p, err := spec.BuildPlan(name, cat)
		var want []data.Record
		if err == nil {
			want, _, err = eng.Execute(p, userOpts...)
		}
		userLat := time.Since(t0)
		if err == nil {
			err = matchesDigest(want, s.digests[k])
		}
		if err != nil {
			out.fail("probe spec %d (user path): %v", k, err)
			continue
		}
		t := newOpTrace(log, -1-i, name)
		t0 = time.Now()
		got, err := tracedSpec(eng, &spec, name, cat, base, t)
		end := time.Now()
		log.addBench(-1-i, name, "op", t0, end)
		if err == nil {
			err = sameBytes(got, want)
		}
		if err != nil {
			out.fail("probe spec %d (traced path): %v", k, err)
			continue
		}
		if other := ls.addOp(end.Sub(t0), t); other < 0 {
			out.fail("probe spec %d: layers sum to %s more than its latency", k, -other)
		}
		userTotal += userLat
		tracedTotal += end.Sub(t0)
	}
	return ls, 100 * (float64(tracedTotal)/float64(userTotal) - 1), nil
}

// tracedSpec builds a spec's plan the way the service does, timing the
// RheemQL layers of SQL specs, and runs it through runEngine.
func tracedSpec(eng *rheem.Context, spec *service.Spec, name string, cat *rheemql.Catalog, base executor.Options, t *opTrace) ([]data.Record, error) {
	var p *plan.Plan
	if spec.Kind == service.KindSQL {
		var q *rheemql.Query
		if err := t.time("rheemql.parse", func() (err error) {
			q, err = rheemql.Parse(spec.Query)
			return err
		}); err != nil {
			return nil, err
		}
		if err := t.time("rheemql.compile", func() error {
			c, err := rheemql.Compile(q, cat)
			if err == nil {
				p = c.Plan
			}
			return err
		}); err != nil {
			return nil, err
		}
	} else if err := t.time("plan.build", func() (err error) {
		p, err = spec.BuildPlan(name, cat)
		return err
	}); err != nil {
		return nil, err
	}
	return runEngine(eng, p, base, t, 0)
}

// matchesDigest checks records against an expected result digest.
func matchesDigest(recs []data.Record, want string) error {
	got, err := service.Digest(recs)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func earlier(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}
