package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// benchSpan is one span the benchmark records around a call into a
// layer. Spans of one op share its Op number; the op's own span has
// layer "op" and every other span of the op lies inside it.
type benchSpan struct {
	Op        int       `json:"op"`
	OpName    string    `json:"op_name"`
	Layer     string    `json:"layer"`
	StartedAt time.Time `json:"started_at"`
	EndedAt   time.Time `json:"ended_at"`
}

// engineSpanLine carries one span the engine emitted while running op.
type engineSpanLine struct {
	Op     int         `json:"op"`
	Engine *trace.Span `json:"engine"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	lines []any
}

func (l *spanLog) addBench(op int, name, layer string, from, to time.Time) {
	l.lines = append(l.lines, benchSpan{Op: op, OpName: name, Layer: layer, StartedAt: from, EndedAt: to})
}

// addEngine stores copies of the engine spans without their task-atom
// pointers, which would keep every op's plan and input data alive.
func (l *spanLog) addEngine(op int, spans []*trace.Span) {
	for _, sp := range spans {
		c := *sp
		c.Atom = nil
		l.lines = append(l.lines, engineSpanLine{Op: op, Engine: &c})
	}
}

// dump writes the spans as JSON lines to dir/name and returns the path.
func (l *spanLog) dump(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, line := range l.lines {
		if err := enc.Encode(line); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// opTrace times the layers of one op. Layers must be disjoint parts of
// the op's interval; their sum plus other_ms is the op's latency.
type opTrace struct {
	log    *spanLog
	op     int
	name   string
	layers map[string]time.Duration
	runs   []engineRun
}

// engineRun is one executor run of an op, kept for analysis.
type engineRun struct {
	name       string
	plan       *optimizer.ExecutionPlan
	trace      *trace.Trace
	start, end time.Time
	iterations int
	tempRows   int
}

func newOpTrace(log *spanLog, op int, name string) *opTrace {
	return &opTrace{log: log, op: op, name: name, layers: map[string]time.Duration{}}
}

// time runs f as the named layer.
func (t *opTrace) time(layer string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	t.layers[layer] += end.Sub(start)
	t.log.addBench(t.op, t.name, layer, start, end)
	return err
}

// layerStats accumulates the per-layer metrics of a traced run. Sums
// are divided by the op count at the end; ratios keep their numerator
// and denominator apart until then.
type layerStats struct {
	ops      int
	sums     map[string]float64
	num, den map[string]float64
	cardErrs []float64
	// assigned counts operator-to-platform assignments, the
	// denominator of the optimizer.platform_share.* metrics.
	assigned float64
	latency  time.Duration
	other    time.Duration
}

func newLayerStats() *layerStats {
	return &layerStats{sums: map[string]float64{}, num: map[string]float64{}, den: map[string]float64{}}
}

func (s *layerStats) ratio(name string, num, den float64) {
	s.num[name] += num
	s.den[name] += den
}

// platformModule maps a platform to the module name its metrics use.
var platformModule = map[engine.PlatformID]string{
	javaengine.ID: "javaengine",
	sparksim.ID:   "sparksim",
	relengine.ID:  "relengine",
}

// timedLayers maps the layers opTrace.time measures to their metrics.
var timedLayers = map[string]string{
	"rheemql.parse":      "rheemql.parse_us",
	"rheemql.compile":    "rheemql.compile_us",
	"plan.build":         "plan.build_us",
	"physical.lower":     "physical.lower_us",
	"optimizer.optimize": "optimizer.optimize_us",
}

// addOp folds one finished op, with its executor runs, into the stats
// and returns its other time. latency is the op's wall time.
func (s *layerStats) addOp(latency time.Duration, t *opTrace) time.Duration {
	for _, r := range t.runs {
		prof := profile.Build(0, r.name, r.start, r.end, "", r.trace.Spans)
		s.addPlan(r.plan)
		s.addExec(t, analyzeSpans(r.trace.Spans, r.start, r.end), r.trace.Audits,
			time.Duration(prof.CriticalPathNS), r.iterations)
		s.sums["relengine.temp_rows_per_op"] += float64(r.tempRows)
		t.log.addEngine(t.op, r.trace.Spans)
	}
	other := layerSum(latency, t.layers)
	s.ops++
	s.latency += latency
	s.other += other
	for layer, metric := range timedLayers {
		s.sums[metric] += us(t.layers[layer])
	}
	return other
}

// addPlan records the optimizer's output for one op.
func (s *layerStats) addPlan(ep *optimizer.ExecutionPlan) {
	atoms := 0
	var walk func(ep *optimizer.ExecutionPlan)
	walk = func(ep *optimizer.ExecutionPlan) {
		atoms += len(ep.Atoms)
		for _, pl := range ep.Assignment {
			s.num["optimizer.platform_share."+string(pl)]++
			s.assigned++
		}
		for _, body := range ep.LoopBodies {
			walk(body)
		}
	}
	walk(ep)
	s.sums["optimizer.atoms_per_plan"] += float64(atoms)
}

// execBreakdown splits one executor run over the layers below it, from
// the spans the executor emitted.
type execBreakdown struct {
	run, self   time.Duration
	platform    time.Duration // union of platform attempt intervals
	conv        time.Duration // span time outside attempts: input conversion
	loopOver    time.Duration // loop span time no body atom covers
	busy        map[engine.PlatformID]time.Duration
	inRecords   map[engine.PlatformID]int64 // channel inputs plus source reads
	convModel   time.Duration
	convBytes   int64
	convSteps   int
	consumers   int
	batchInputs int
	queueWait   time.Duration
	shuffled    int64
	retries     int
	jobs        int
}

// analyzeSpans computes the breakdown of a run that lasted [lo, hi).
// Each atom span is input conversion followed by its attempts; attempts
// carry only their length, so they are laid end to end backwards from
// the span's end (a retry's back-off sleep is thereby counted as
// conversion, and retries are rare enough for that not to matter).
func analyzeSpans(spans []*trace.Span, lo, hi time.Time) execBreakdown {
	b := execBreakdown{
		run:       hi.Sub(lo),
		busy:      map[engine.PlatformID]time.Duration{},
		inRecords: map[engine.PlatformID]int64{},
	}
	var atomIvs, attemptIvs []interval
	var loops []*trace.Span
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindLoop:
			loops = append(loops, sp)
			continue
		case trace.KindAtom:
		default:
			continue
		}
		atomIvs = append(atomIvs, interval{sp.StartedAt, sp.EndedAt})
		end := sp.EndedAt
		for i := len(sp.Attempts) - 1; i >= 0; i-- {
			start := end.Add(-sp.Attempts[i].Wall)
			if start.Before(sp.StartedAt) {
				start = sp.StartedAt
			}
			attemptIvs = append(attemptIvs, interval{start, end})
			b.busy[sp.Platform] += sp.Attempts[i].Wall
			end = start
		}
		b.inRecords[sp.Platform] += sp.Metrics.InRecords + sourceRecords(sp.Atom)
		b.convModel += sp.ConvTime
		b.convBytes += sp.ConvBytes
		b.convSteps += sp.ConvSteps
		b.queueWait += sp.QueueWait
		b.shuffled += sp.Metrics.ShuffledBytes
		b.retries += sp.Retries
		b.jobs += sp.Metrics.Jobs
		for f, n := range sp.InFormats {
			b.consumers += n
			if f == "batch" {
				b.batchInputs += n
			}
		}
	}
	spanned := covered(atomIvs, lo, hi)
	b.platform = covered(attemptIvs, lo, hi)
	b.conv = spanned - b.platform
	b.self = b.run - spanned
	for _, lp := range loops {
		b.loopOver += lp.EndedAt.Sub(lp.StartedAt) - covered(atomIvs, lp.StartedAt, lp.EndedAt)
	}
	return b
}

// sourceRecords counts the records an atom reads from the sources it
// contains, which platforms do not count as input records.
func sourceRecords(atom *engine.TaskAtom) int64 {
	if atom == nil {
		return 0
	}
	var n int64
	for _, op := range atom.Ops {
		if op.Kind() == plan.KindSource {
			n += op.Logical.CardHint
		}
	}
	return n
}

// executorSpans drops the job service's lifecycle spans from a recorded
// run, leaving the spans the executor emitted.
func executorSpans(spans []*trace.Span) []*trace.Span {
	var out []*trace.Span
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindAdmission, trace.KindQueue, trace.KindDispatch:
		default:
			out = append(out, sp)
		}
	}
	return out
}

// addExec folds one executor run into the stats and the op's layers.
// iterations is the op's loop iteration count (0 for loop-free ops);
// critical is the run's critical-path length.
func (s *layerStats) addExec(t *opTrace, b execBreakdown, audits []trace.CardAudit, critical time.Duration, iterations int) {
	t.layers["executor.self"] = b.self
	t.layers["platform"] = b.platform
	t.layers["channel.conv"] = b.conv
	s.sums["executor.run_ms"] += ms(b.run)
	s.sums["executor.self_ms"] += ms(b.self)
	s.sums["executor.jobs_per_op"] += float64(b.jobs)
	s.sums["executor.queue_wait_ms"] += ms(b.queueWait)
	s.sums["executor.retries_per_op"] += float64(b.retries)
	s.sums["channel.conv_ms"] += ms(b.conv)
	s.sums["channel.conv_model_ms"] += ms(b.convModel)
	s.sums["channel.moved_bytes_per_op"] += float64(b.convBytes)
	s.sums["channel.conv_steps_per_op"] += float64(b.convSteps)
	s.sums["sparksim.shuffled_bytes_per_op"] += float64(b.shuffled)
	s.ratio("channel.batch_consumer_share", float64(b.batchInputs), float64(b.consumers))
	s.ratio("executor.critical_path_share", float64(critical), float64(b.run))
	if iterations > 0 {
		s.ratio("executor.loop_overhead_us_per_iter", us(b.loopOver), float64(iterations))
	}
	for pl, d := range b.busy {
		mod := platformModule[pl]
		s.sums[mod+".busy_ms"] += ms(d)
		s.ratio(mod+".ns_per_record", float64(d), float64(b.inRecords[pl]))
	}
	for _, a := range audits {
		est, act := float64(a.Estimated), float64(a.Actual)
		if est < 1 {
			est = 1
		}
		if act < 1 {
			act = 1
		}
		s.cardErrs = append(s.cardErrs, math.Abs(math.Log2(act/est)))
	}
}

// finish writes the per-layer metrics into m. Metrics of layers the
// workload never used read 0.
func (s *layerStats) finish(m map[string]float64) error {
	if s.ops == 0 {
		return fmt.Errorf("traced run completed no ops")
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	n := float64(s.ops)
	for name, v := range s.sums {
		m[name] = v / n
	}
	for _, id := range []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID} {
		s.den["optimizer.platform_share."+string(id)] = s.assigned
	}
	for name, num := range s.num {
		if den := s.den[name]; den > 0 {
			m[name] = num / den
		}
	}
	if len(s.cardErrs) > 0 {
		m["optimizer.card_error_p50"] = median(s.cardErrs)
	}
	m["other_ms"] = ms(s.other) / n
	m["layers.unattributed_share"] = float64(s.other) / float64(s.latency)
	return nil
}
