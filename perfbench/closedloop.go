package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"rheem"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/data"
)

// closedOp is one op of a closed-loop mix.
type closedOp struct {
	name string
	// user runs the op the way a program using the library would.
	user func() ([]data.Record, *rheem.Report, error)
	// traced runs the same op through each layer in turn, timing every
	// call in t.
	traced func(t *opTrace) ([]data.Record, error)
	// check compares an output with the op's reference.
	check func([]data.Record) error
	// tolerant, when set, accepts an output that differs from an
	// earlier one of the same op in float rounding or record order —
	// for ops whose platforms fold floats or emit groups in an
	// unspecified order. Such outputs still count against
	// ops_bytes_identical_ratio.
	tolerant func(got, want []data.Record) error
}

// sameAs compares got with an earlier output of the same op.
func (o *closedOp) sameAs(got, want []data.Record) (identical bool, err error) {
	err = sameBytes(got, want)
	if err == nil {
		return true, nil
	}
	if o.tolerant != nil && o.tolerant(got, want) == nil {
		return false, nil
	}
	return false, err
}

// mixRun tracks a closed loop's outputs: every op must pass its check
// and match its first output.
type mixRun struct {
	out       *outcome
	first     map[*closedOp][]data.Record
	compared  int
	identical int
}

// verify checks one output of o and records a failure if it is wrong.
func (r *mixRun) verify(o *closedOp, recs []data.Record, err error, what string) bool {
	if err == nil {
		err = o.check(recs)
	}
	if err == nil {
		if first, ok := r.first[o]; ok {
			err = r.compare(o, recs, first)
		} else {
			r.first[o] = recs
		}
	}
	if err != nil {
		r.out.fail("%s%s: %v", o.name, what, err)
		return false
	}
	return true
}

// compare counts one comparison of got against an earlier output.
func (r *mixRun) compare(o *closedOp, got, want []data.Record) error {
	identical, err := o.sameAs(got, want)
	r.compared++
	if identical {
		r.identical++
	}
	return err
}

// releaseTemp drops the intermediate tables the relational engine keeps
// after a run (they stay in its catalog until the caller releases them)
// and returns how many rows they held. Both paths call it after every
// op, as a long-running program must, or the heap grows with every
// relational op.
func releaseTemp(rc *rheem.Context) int {
	db := rc.DB()
	if db == nil {
		return 0
	}
	rows := 0
	for _, name := range db.TableNames() {
		if t, ok := db.Table(name); ok && strings.HasPrefix(name, "_tmp_") {
			rows += t.NumRows()
		}
	}
	db.ReleaseTemp()
	return rows
}

// runClosedLoop drives one client through ops round-robin for the
// configured time. Untraced, it measures the end-to-end metrics; traced,
// it runs every op through the user path and then the traced path,
// demands identical bytes from both, and measures the layers.
func runClosedLoop(cfg runConfig, ops []*closedOp, setupS float64) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	mr := &mixRun{out: out, first: map[*closedOp][]data.Record{}}
	// Warm-up: one pass over the mix, checked but not measured.
	for _, o := range ops {
		recs, _, err := o.user()
		out.attempted++
		mr.verify(o, recs, err, " (warm-up)")
	}
	if cfg.trace {
		return out, tracedClosedLoop(cfg, ops, mr)
	}
	var lats []float64
	byOp := map[string][]float64{}
	var sim time.Duration
	runtime.GC()
	before := readMem()
	start := time.Now()
	deadline := start.Add(cfg.duration())
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		t0 := time.Now()
		recs, rep, err := o.user()
		lat := time.Since(t0)
		out.attempted++
		if !mr.verify(o, recs, err, "") {
			continue
		}
		lats = append(lats, ms(lat))
		byOp[o.name] = append(byOp[o.name], ms(lat))
		sim += rep.Metrics.Sim
	}
	elapsed := time.Since(start)
	after := readMem()
	n := len(lats)
	if n == 0 {
		return nil, fmt.Errorf("no op completed in %s", elapsed)
	}
	m := out.metrics
	m["throughput_ops_s"] = float64(n) / elapsed.Seconds()
	// One closed-loop client issues each op as soon as the last one
	// finishes: the highest rate it can offer without a backlog.
	m["sustainable_rate_s"] = m["throughput_ops_s"]
	latencyMetrics(m, lats)
	m["sim_ms_per_op"] = ms(sim) / float64(n)
	runtimeMetrics(m, before, after, n)
	m["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(ops)
	for _, o := range ops {
		l := byOp[o.name]
		fmt.Fprintf(os.Stderr, "perfbench: %-10s %4d ops  p50 %8.2f ms  max %8.2f ms\n", o.name, len(l), median(l), percentile(l, 100))
	}
	if mr.identical < mr.compared {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d outputs differed from their op's first output in rounding or order\n",
			mr.compared-mr.identical, mr.compared)
	}
	m["ops_ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	return out, nil
}

func tracedClosedLoop(cfg runConfig, ops []*closedOp, mr *mixRun) error {
	out := mr.out
	log := &spanLog{}
	ls := newLayerStats()
	var userTotal, tracedTotal time.Duration
	runtime.GC()
	before := readMem()
	deadline := time.Now().Add(cfg.duration())
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		out.attempted++
		t0 := time.Now()
		want, _, err := o.user()
		userLat := time.Since(t0)
		if !mr.verify(o, want, err, " (user path)") {
			continue
		}
		t := newOpTrace(log, i, o.name)
		t0 = time.Now()
		got, err := o.traced(t)
		end := time.Now()
		log.addBench(i, o.name, "op", t0, end)
		if err == nil {
			err = mr.compare(o, got, want)
		}
		if err != nil {
			out.fail("%s (traced path): %v", o.name, err)
			continue
		}
		if other := ls.addOp(end.Sub(t0), t); other < 0 {
			out.fail("%s: layers sum to %s more than the op's latency", o.name, -other)
		}
		userTotal += userLat
		tracedTotal += end.Sub(t0)
	}
	after := readMem()
	m := out.metrics
	if err := ls.finish(m); err != nil {
		return err
	}
	// Both paths ran in the measured phase, so runtime costs are per
	// pair of runs; halve them to read per op.
	runtimeMetrics(m, before, after, 2*ls.ops)
	m["trace.overhead_pct"] = 100 * (float64(tracedTotal)/float64(userTotal) - 1)
	m["ops_failed_ratio"] = float64(out.failed) / float64(out.attempted)
	m["ops_bytes_identical_ratio"] = float64(mr.identical) / float64(mr.compared)
	out.spans = log
	return nil
}

// runEngine lowers, optimizes and executes a logical plan the way
// rheem.Context.Execute does, timing each layer in t and keeping what
// the executor reported in t.runs for layerStats.addOp to analyse once
// the op's clock has stopped. base carries the executor options the user
// path would pass; iterations is the plan's loop iteration count (0
// without a loop).
func runEngine(rc *rheem.Context, p *plan.Plan, base executor.Options, t *opTrace, iterations int) ([]data.Record, error) {
	var pp *physical.Plan
	if err := t.time("physical.lower", func() (err error) {
		pp, err = physical.FromLogical(p)
		return err
	}); err != nil {
		return nil, err
	}
	hub := rc.Telemetry()
	cal := hub.Calibrator()
	var ep *optimizer.ExecutionPlan
	if err := t.time("optimizer.optimize", func() (err error) {
		ep, err = optimizer.Optimize(pp, rc.Registry(), optimizer.Options{Calibration: cal})
		return err
	}); err != nil {
		return nil, err
	}
	tracer, run := hub.NewRunTracer(p.Name())
	opts := base
	opts.Tracer = tracer
	opts.Calibration = cal
	start := time.Now()
	res, err := executor.Run(ep, rc.Registry(), opts)
	end := time.Now()
	run.End(err)
	t.log.addBench(t.op, t.name, "executor.run", start, end)
	snap := tracer.Snapshot()
	if rec := hub.FlightRecorder(); rec != nil {
		rec.Record(run.ID(), p.Name(), run.Started(), run.Ended(), err, snap)
	}
	if cal != nil {
		cal.Fold(profile.Observations(snap.Spans, snap.Audits))
	}
	tempRows := releaseTemp(rc)
	if err != nil {
		return nil, err
	}
	t.runs = append(t.runs, engineRun{
		name: p.Name(), plan: res.FinalPlan, trace: res.Trace,
		start: start, end: end, iterations: iterations, tempRows: tempRows,
	})
	return res.Records, nil
}
