// Package executor implements RHEEM's Executor (paper §4.2): it takes
// an execution plan from the multi-platform optimizer and is
// responsible for "(i) scheduling the resulting execution plan on the
// selected data processing frameworks, (ii) monitoring the progress of
// plan execution, (iii) coping with failures, and (iv) aggregating and
// returning results to users".
//
// Concretely it schedules the task atoms concurrently as their data
// dependencies resolve (see scheduler.go): independent atoms — the two
// scan legs of a join, sibling branches of a fan-out — overlap on a
// bounded worker pool, while every atom still sees exactly the input
// channels the sequential executor would have handed it. Channel
// conversions are inserted at every cross-platform edge (performing
// the data movement the optimizer priced), failed atom executions are
// retried up to a bound, loop atoms are unrolled by repeatedly
// executing the loop body's execution plan (charging the body
// platform's per-job overhead every iteration — the mechanism behind
// the paper's Figure 2), span events are emitted, and metrics
// and the sink's records are aggregated.
package executor

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

// NoRetries is the Options.MaxRetries sentinel for "fail on the first
// error": the zero value means "default budget", so opting out of
// retries needs an explicit marker.
const NoRetries = -1

// Options configures a run.
type Options struct {
	// Context cancels execution between (and inside) atoms.
	Context context.Context
	// Parallelism bounds how many task atoms execute concurrently
	// (default runtime.NumCPU()). 1 reproduces the sequential
	// executor: atoms run one at a time in topological order.
	Parallelism int
	// MaxRetries bounds re-executions of a failed atom (default 2).
	// Pass NoRetries (-1, or any negative value) to fail on the first
	// error; 0 selects the default. Fatal errors (engine.Fatal — e.g. a
	// deterministic UDF failure) are never retried regardless.
	MaxRetries int
	// RetryBackoff is the base delay before the first re-execution;
	// subsequent attempts back off exponentially (doubling, capped at
	// 2s) with deterministic jitter. 0 selects the default (10ms); a
	// negative value disables the delay entirely (as the tests do).
	RetryBackoff time.Duration
	// AtomTimeout bounds each execution attempt of a single atom; an
	// attempt exceeding it fails with context.DeadlineExceeded and is
	// retried like any transient failure. 0 disables the bound.
	AtomTimeout time.Duration
	// Shards enables intra-atom data parallelism: a shardable compute
	// atom's input batch is split into up to Shards pieces that execute
	// concurrently (see shard.go for the shardability rules and merge
	// semantics). ≤1 disables sharding — every atom runs on its whole
	// input, exactly the pre-sharding behavior. The shard fan-out has
	// its own run-wide budget of Shards concurrent shard executions,
	// independent of Parallelism's atom budget.
	Shards int
	// Pool, when set, is a cross-run bound on atom execution: every
	// compute atom additionally acquires a slot from this shared pool
	// before executing (loop atoms never hold one — see pool.go for the
	// no-deadlock argument). Parallelism still bounds this run's own
	// in-flight atoms; the pool bounds the host-wide total across every
	// run sharing it. nil means no cross-run bound — the single-shot
	// behavior.
	Pool *Pool
	// Failover enables cross-platform failover: when an atom exhausts
	// its retries on a platform the health tracker has quarantined, the
	// executor quiesces in-flight atoms and re-plans the remaining
	// operators on the surviving platforms (completed atoms stay
	// frozen). The run fails only if no capable platform remains.
	Failover bool
	// AuditFactor flags operators whose actual output cardinality is
	// off the optimizer's estimate by more than this factor in either
	// direction (default 8; ≤1 disables the audit). Audited mismatches
	// land in Result.Mismatches — the raw material for re-optimization
	// and for tuning source hints.
	AuditFactor float64
	// ReOptimize enables adaptive re-optimization: when the audit
	// flags a gross cardinality mismatch at a top-level atom boundary,
	// the executor quiesces in-flight atoms and re-plans the remaining
	// operators with the observed cardinalities, keeping completed
	// atoms frozen. At most one re-optimization happens per run.
	ReOptimize bool
	// Tracer, when set, receives the run's span stream (and keeps any
	// consumers subscribed to it). nil gives the run a private tracer;
	// either way Result.Trace holds the collected spans and audit
	// trail. Consumer callbacks are serialized by the tracer, so a
	// subscriber needs no synchronization of its own.
	Tracer *trace.Tracer
	// Calibration propagates the learned cost-correction factors into
	// mid-run re-planning: adaptive re-optimization and cross-platform
	// failover re-run the optimizer, and without this the replacement
	// plan would be priced uncalibrated. Nil is fine.
	Calibration *cost.Calibrator
}

func (o *Options) defaults() {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0 // NoRetries: first failure is final
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 10 * time.Millisecond
	} else if o.RetryBackoff < 0 {
		o.RetryBackoff = 0
	}
	if o.AuditFactor == 0 {
		o.AuditFactor = 8
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
}

// CardMismatch reports one operator whose observed output cardinality
// diverged badly from the optimizer's estimate (part of the executor's
// monitoring duty, §4.2).
type CardMismatch struct {
	OpName    string
	Estimated int64
	Actual    int64
}

// Result aggregates a run's output and accounting.
type Result struct {
	// Records is the sink's output, converted to driver records.
	Records []data.Record
	// Metrics is the whole-plan aggregate. Its Wall is the run's
	// elapsed host time — under concurrent scheduling that is less
	// than the sum of the per-atom Wall values in AtomMetrics.
	Metrics engine.Metrics
	// AtomMetrics holds per-atom aggregates, keyed by atom ID of the
	// top-level plan.
	AtomMetrics map[int]engine.Metrics
	// Mismatches lists audited cardinality estimation failures (loop
	// body operators are audited on their first iteration only).
	Mismatches []CardMismatch
	// Reoptimized reports whether adaptive re-optimization replaced
	// the execution plan mid-run.
	Reoptimized bool
	// Failovers counts cross-platform failover re-plans performed
	// during the run (each quarantines at least one more platform, so
	// the count is bounded by the registry size).
	Failovers int
	// PlatformHealth is the circuit-breaker state per platform at the
	// end of the run, from the registry's health tracker.
	PlatformHealth map[engine.PlatformID]engine.BreakerState
	// FinalPlan is the execution plan that finished the run — the
	// original one, or the re-optimized replacement.
	FinalPlan *optimizer.ExecutionPlan
	// Trace is the run's span trace and estimate-vs-actual audit
	// trail, always collected (spans are cheap next to executing an
	// atom). See rheem.WithTracing for the public surface.
	Trace *trace.Trace
}

// Run executes an optimized plan over the registry's platforms.
func Run(ep *optimizer.ExecutionPlan, reg *engine.Registry, opts Options) (*Result, error) {
	opts.defaults()
	ctx, cancel := context.WithCancel(opts.Context)
	defer cancel()
	opts.Context = ctx

	// Every run notification flows through one span stream: the tracer
	// collects spans and the audit trail, and progress observers are
	// consumers subscribed to the same stream.
	tr := opts.Tracer
	if tr == nil {
		tr = trace.New()
	}

	start := time.Now()
	// Announce the plan and its atom count before scheduling starts, so
	// live-progress consumers know the denominator from the first span.
	tr.Start(ep.Physical.Name, len(ep.Atoms))
	res := &Result{AtomMetrics: make(map[int]engine.Metrics), FinalPlan: ep}
	st := &runState{cancel: cancel, res: res, tr: tr, audited: map[int]bool{}}
	if opts.Shards > 1 {
		st.shardSem = make(chan struct{}, opts.Shards)
	}
	channels := make(map[int]*channel.Channel)
	if err := runPlan(ep, reg, &opts, st, channels, true, -1); err != nil {
		return nil, err
	}
	res.PlatformHealth = reg.Health().Snapshot()
	// All atoms have drained; the remaining accesses are single-threaded.
	ep = res.FinalPlan
	sinkCh := channels[ep.Physical.SinkOp.ID]
	if sinkCh == nil {
		return nil, fmt.Errorf("executor: sink produced no channel")
	}
	out, moveCost, steps, err := reg.Channels().Convert(sinkCh, channel.Collection)
	if err != nil {
		return nil, fmt.Errorf("executor: materializing result: %w", err)
	}
	res.Metrics.Sim += moveCost
	res.Metrics.Conversions += steps
	recs, err := out.AsCollection()
	if err != nil {
		return nil, err
	}
	res.Records = recs
	res.Metrics.Wall = time.Since(start)
	tr.PlanDone(res.Metrics)
	res.Trace = tr.Snapshot()
	return res, nil
}

// atomEstCost sums the optimizer's estimated cost over the atom's
// operators — the prediction the span's measured metrics audit.
func atomEstCost(ep *optimizer.ExecutionPlan, atom *engine.TaskAtom) time.Duration {
	if atom.Kind == engine.AtomLoop {
		return ep.OpCosts[atom.LoopOp.ID].Total()
	}
	var total time.Duration
	for _, op := range atom.Ops {
		total += ep.OpCosts[op.ID].Total()
	}
	return total
}

// atomKindEst splits a compute atom's RAW estimated cost by operator
// kind — the span-level attribution the cost calibrator folds measured
// time against. Raw, so calibration corrections never enter their own
// learning target. Nil for loop atoms (their body atoms carry the
// attribution) and for plans with no raw costs.
func atomKindEst(ep *optimizer.ExecutionPlan, atom *engine.TaskAtom) map[string]int64 {
	if atom.Kind != engine.AtomCompute || len(ep.RawOpCosts) == 0 {
		return nil
	}
	m := make(map[string]int64, len(atom.Ops))
	for _, op := range atom.Ops {
		if c, ok := ep.RawOpCosts[op.ID]; ok {
			m[op.Kind().String()] += int64(c.Total())
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// atomDone reports whether every output the atom owes the rest of the
// plan is already available.
func atomDone(atom *engine.TaskAtom, channels map[int]*channel.Channel) bool {
	if atom.Kind == engine.AtomLoop {
		return channels[atom.LoopOp.ID] != nil
	}
	if len(atom.Exits) == 0 {
		return false
	}
	for _, ex := range atom.Exits {
		if channels[ex.ID] == nil {
			return false
		}
	}
	return true
}

// reoptimize re-plans the physical plan with observed cardinalities:
// operators whose outputs exist keep their platforms and are frozen
// into skippable atoms; everything downstream is re-costed and may
// move to a different platform. Failover re-plans additionally pass
// the quarantined platforms as excluded, so no remaining operator is
// assigned to them. The caller must have quiesced all in-flight atoms
// — reoptimize reads the channel map unlocked.
func reoptimize(ep *optimizer.ExecutionPlan, reg *engine.Registry, opts *Options, channels map[int]*channel.Channel, excluded map[engine.PlatformID]bool) (*optimizer.ExecutionPlan, error) {
	overrides := map[int]int64{}
	for id, ch := range channels {
		if ch != nil && ch.Records >= 0 {
			overrides[id] = ch.Records
		}
	}
	frozen := map[int]bool{}
	forced := map[int]engine.PlatformID{}
	for _, atom := range ep.Atoms {
		if !atomDone(atom, channels) {
			continue
		}
		ops := atom.Ops
		if atom.Kind == engine.AtomLoop {
			ops = []*physical.Operator{atom.LoopOp}
		}
		for _, op := range ops {
			frozen[op.ID] = true
			forced[op.ID] = ep.Assignment[op.ID]
		}
	}
	return optimizer.Optimize(ep.Physical, reg, optimizer.Options{
		DisableRules:      true, // structure is fixed mid-run
		CardOverrides:     overrides,
		ForcedAssignments: forced,
		Frozen:            frozen,
		ExcludePlatforms:  excluded,
		Calibration:       opts.Calibration,
	})
}

// runComputeAtom gathers external inputs (converting formats as
// needed), executes the atom with retries, and publishes exit channels.
// It may run concurrently with other atoms: the shared channel map and
// Result are touched only under st.mu, and the platform call itself
// runs unlocked (Platform.ExecuteAtom must be safe for concurrent
// calls — see engine.Platform). The whole execution — input
// conversion, every attempt — is wrapped in one trace span.
func runComputeAtom(atom *engine.TaskAtom, ep *optimizer.ExecutionPlan, reg *engine.Registry, opts *Options, st *runState, channels map[int]*channel.Channel, readyAt time.Time, iter int) error {
	sp := st.tr.Begin(&trace.Span{
		Kind: trace.KindAtom, AtomID: atom.ID, Name: atom.String(),
		Platform: atom.Platform, Plan: ep.Physical.Name, Iteration: iter,
		Shard: -1, EstCost: atomEstCost(ep, atom),
		KindEst: atomKindEst(ep, atom), Atom: atom,
	}, readyAt)
	platform, ok := reg.Platform(atom.Platform)
	if !ok {
		err := fmt.Errorf("executor: unknown platform %q", atom.Platform)
		st.tr.End(sp, engine.Metrics{}, err)
		return err
	}
	vec, _ := platform.(engine.Vectorized)
	inputs := engine.AtomInputs{}
	var moveMetrics engine.Metrics
	for _, op := range atom.Ops {
		// Batch-capable consumers take their external inputs in the
		// columnar format instead of the platform's native one — the
		// cheaper edge the optimizer priced via channel.Batch.
		want := platform.NativeFormat()
		if vec != nil && vec.SupportsBatch(op) {
			want = channel.Batch
		}
		external := false
		for slot, in := range op.Inputs {
			if atom.Contains(in.ID) {
				continue
			}
			external = true
			st.mu.Lock()
			src := channels[in.ID]
			st.mu.Unlock()
			if src == nil {
				err := fmt.Errorf("executor: %s needs output of op %d which is not available", atom, in.ID)
				st.tr.End(sp, moveMetrics, err)
				return err
			}
			conv, cost, steps, err := reg.Channels().Convert(src, want)
			if err != nil {
				err = fmt.Errorf("executor: feeding %s: %w", atom, err)
				st.tr.End(sp, moveMetrics, err)
				return err
			}
			moveMetrics.Sim += cost
			moveMetrics.Conversions += steps
			if steps > 0 {
				moveMetrics.MovedBytes += src.Bytes
			}
			if inputs[op.ID] == nil {
				inputs[op.ID] = map[int]*channel.Channel{}
			}
			inputs[op.ID][slot] = conv
		}
		// Record the format choice per consumer with external inputs —
		// the span-level evidence of columnar (batch) adoption.
		if external {
			if sp.InFormats == nil {
				sp.InFormats = map[string]int{}
			}
			sp.InFormats[string(want)]++
		}
	}
	sp.ConvTime = moveMetrics.Sim
	sp.ConvBytes = moveMetrics.MovedBytes
	sp.ConvSteps = moveMetrics.Conversions

	// Sharding decision: made once per atom, after input conversion (so
	// the split sees platform-native channels) and outside the retry
	// loop (a retry re-executes the same shards).
	sh := planShards(platform, reg, atom, inputs, opts.Shards)
	if sh != nil {
		sp.Shards = len(sh.shards)
	}

	health := reg.Health()
	stats := reg.Stats()
	var exits map[int]*channel.Channel
	var m engine.Metrics
	var err error
	for attempt := 0; ; attempt++ {
		attStart := st.tr.Now()
		if sh != nil {
			exits, m, err = executeShardedAttempt(platform, atom, sh, opts, st, reg, ep.Physical.Name, iter)
		} else {
			exits, m, err = executeAttempt(platform, atom, inputs, opts)
		}
		att := trace.Attempt{Number: attempt + 1, Wall: st.tr.Now().Sub(attStart)}
		if err == nil {
			sp.Attempts = append(sp.Attempts, att)
			health.ReportSuccess(atom.Platform)
			break
		}
		att.Err = err.Error()
		att.Fatal = engine.IsFatal(err)
		sp.Attempts = append(sp.Attempts, att)
		// A cancelled run is not an atom failure: return the context
		// error itself, untouched — it must not count against the retry
		// budget, the platform's health, or read as "failed after
		// retries" in the run error.
		if ctxErr := opts.Context.Err(); ctxErr != nil {
			m.Add(moveMetrics)
			st.tr.End(sp, m, ctxErr)
			return ctxErr
		}
		fatal := engine.IsFatal(err)
		stats.RecordAttemptFailure(atom.Platform, fatal)
		if !fatal {
			health.ReportFailure(atom.Platform)
		}
		if fatal || attempt >= opts.MaxRetries {
			break
		}
		moveMetrics.Retries++
		sp.Retries++
		stats.RecordRetry(atom.Platform)
		st.tr.Retry(sp, attempt+1, m, err)
		st.mu.Lock()
		st.res.Metrics.Add(m) // failed attempts still cost time
		st.mu.Unlock()
		if ctxErr := backoffSleep(opts, atom.ID, attempt); ctxErr != nil {
			st.tr.End(sp, moveMetrics, ctxErr)
			return ctxErr
		}
	}
	m.Add(moveMetrics)
	if err != nil {
		stats.RecordFinalFailure(atom.Platform)
		st.mu.Lock()
		st.res.Metrics.Add(m) // the final attempt and its retries still cost time
		st.mu.Unlock()
		st.tr.End(sp, m, err)
		wrapped := fmt.Errorf("executor: %s failed after %d attempt(s): %w", atom, moveMetrics.Retries+1, err)
		if opts.Failover && !engine.IsFatal(err) && health.Quarantined(atom.Platform) {
			return &failoverError{platform: atom.Platform, atom: atom, err: wrapped}
		}
		return wrapped
	}
	stats.RecordSuccess(atom.Platform, m)
	st.mu.Lock()
	st.res.Metrics.Add(m)
	am := st.res.AtomMetrics[atom.ID]
	am.Add(m)
	st.res.AtomMetrics[atom.ID] = am
	for id, ch := range exits {
		channels[id] = ch
	}
	audits := auditCardsLocked(atom, ep, exits, opts, st)
	st.mu.Unlock()
	st.tr.End(sp, m, nil)
	st.tr.Audit(audits...)
	return nil
}

// auditCardsLocked compares observed exit cardinalities against the
// optimizer's estimates, records gross mismatches in the Result, and
// returns audit-trail records (every audited exit, flagged or not) for
// the tracer. The caller holds st.mu.
func auditCardsLocked(atom *engine.TaskAtom, ep *optimizer.ExecutionPlan, exits map[int]*channel.Channel, opts *Options, st *runState) []trace.CardAudit {
	est := ep.Estimates
	if est == nil {
		return nil
	}
	var audits []trace.CardAudit
	for _, ex := range atom.Exits {
		ch := exits[ex.ID]
		if ch == nil || ch.Records < 0 || st.audited[ex.ID] {
			continue
		}
		st.audited[ex.ID] = true
		estimate := est.Cards[ex.ID]
		actual := ch.Records
		lo, hi := estimate, actual
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo <= 0 {
			lo = 1
		}
		if hi <= 0 {
			hi = 1
		}
		factor := float64(hi) / float64(lo)
		flagged := opts.AuditFactor > 1 && factor > opts.AuditFactor
		rawEstimate := estimate
		if ep.RawEstimates != nil {
			rawEstimate = ep.RawEstimates.Cards[ex.ID]
		}
		audits = append(audits, trace.CardAudit{
			OpID: ex.ID, OpName: ex.Name(), Platform: atom.Platform,
			Estimated: estimate, Actual: actual, ErrFactor: factor,
			Flagged: flagged, EstCost: ep.OpCosts[ex.ID].Total(),
			OpKind: ex.Kind().String(), RawEstimated: rawEstimate,
		})
		if flagged {
			st.res.Mismatches = append(st.res.Mismatches, CardMismatch{
				OpName: ex.Name(), Estimated: estimate, Actual: actual,
			})
		}
	}
	return audits
}

// runLoop unrolls a Repeat/DoWhile atom: each iteration executes the
// body's execution plan with the LoopInput channel bound to the
// current state, then feeds the body output back as the next state.
// Iterations stay strictly sequential, but each iteration's body plan
// runs under the same concurrent scheduler as the top level. The whole
// unrolled loop is one KindLoop span; body atoms get their own spans
// tagged with the iteration they ran in.
func runLoop(ep *optimizer.ExecutionPlan, atom *engine.TaskAtom, reg *engine.Registry, opts *Options, st *runState, channels map[int]*channel.Channel, readyAt time.Time, outerIter int) (err error) {
	sp := st.tr.Begin(&trace.Span{
		Kind: trace.KindLoop, AtomID: atom.ID, Name: atom.String(),
		Platform: atom.Platform, Plan: ep.Physical.Name, Iteration: outerIter,
		Shard: -1, EstCost: atomEstCost(ep, atom), Atom: atom,
	}, readyAt)
	defer func() { st.tr.End(sp, engine.Metrics{}, err) }()

	loopOp := atom.LoopOp
	body := ep.LoopBodies[loopOp.ID]
	if body == nil {
		return fmt.Errorf("executor: loop %s has no body plan", loopOp.Name())
	}
	loopInput := findLoopInput(body)
	if loopInput == nil {
		return fmt.Errorf("executor: loop body of %s has no LoopInput", loopOp.Name())
	}
	st.mu.Lock()
	state := channels[loopOp.Inputs[0].ID]
	st.mu.Unlock()
	if state == nil {
		return fmt.Errorf("executor: loop %s input not available", loopOp.Name())
	}

	lop := loopOp.Logical
	maxIter := lop.Times
	if lop.Kind() == plan.KindDoWhile {
		maxIter = lop.MaxIter
		if maxIter <= 0 {
			maxIter = 100
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		bodyChannels := make(map[int]*channel.Channel)
		bodyChannels[loopInput.ID] = state
		if err := runPlan(body, reg, opts, st, bodyChannels, false, iter); err != nil {
			return fmt.Errorf("executor: loop %s iteration %d: %w", loopOp.Name(), iter, err)
		}
		state = bodyChannels[body.Physical.SinkOp.ID]
		if state == nil {
			return fmt.Errorf("executor: loop %s iteration %d produced no output", loopOp.Name(), iter)
		}
		st.tr.Loop(sp, iter)

		if lop.Kind() == plan.KindDoWhile {
			// Evaluate the condition on driver-side records, like a
			// Spark driver collecting loop state.
			conv, cost, steps, err := reg.Channels().Convert(state, channel.Collection)
			if err != nil {
				return fmt.Errorf("executor: loop %s condition input: %w", loopOp.Name(), err)
			}
			st.mu.Lock()
			st.res.Metrics.Sim += cost
			st.res.Metrics.Conversions += steps
			st.mu.Unlock()
			recs, err := conv.AsCollection()
			if err != nil {
				return err
			}
			cont, err := lop.Cond(iter, recs)
			if err != nil {
				return fmt.Errorf("executor: loop %s condition: %w", loopOp.Name(), err)
			}
			if !cont {
				state = conv
				break
			}
		}
	}
	st.mu.Lock()
	channels[loopOp.ID] = state
	st.mu.Unlock()
	return nil
}

func findLoopInput(body *optimizer.ExecutionPlan) *physical.Operator {
	for _, op := range body.Physical.Ops {
		if op.Kind() == plan.KindLoopInput {
			return op
		}
	}
	return nil
}
