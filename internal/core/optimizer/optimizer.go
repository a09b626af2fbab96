// Package optimizer implements RHEEM's multi-platform task optimizer
// (paper §4.2). Given a physical plan and the engine registry it
//
//  1. applies pluggable rewrite rules (rules are plugins, "not
//     hard-coded as in traditional database optimizers");
//  2. estimates cardinalities (package cost);
//  3. jointly chooses, per operator, an algorithm and an execution
//     platform by dynamic programming over (operator, platform)
//     states, where edges between states on different platforms are
//     charged the channel-conversion cost — the paper's inter-platform
//     cost model;
//  4. divides the plan into task atoms ("the units of execution ...
//     executed on a single data processing platform") such that data
//     crosses platforms only at atom boundaries;
//  5. recursively optimizes loop bodies, whose cost is multiplied by
//     the expected iteration count.
//
// The result is an ExecutionPlan the executor can run, with the
// estimated cost attached so callers (and the E6 experiment) can audit
// the optimizer's predictions.
package optimizer

import (
	"fmt"
	"math"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// Options steers an optimization run.
type Options struct {
	// FixedPlatform pins every operator to one platform, used by the
	// single-platform baselines of the experiments. Empty means free
	// choice.
	FixedPlatform engine.PlatformID
	// Rules overrides the rewrite rule set (nil = DefaultRules()).
	Rules []Rule
	// DisableRules skips the rewrite phase entirely.
	DisableRules bool
	// DoWhileIterGuess is the iteration count assumed for DoWhile
	// loops when costing (default 10).
	DoWhileIterGuess int
	// Calibration supplies learned per-(kind, platform) cost correction
	// factors and per-kind cardinality corrections folded from completed
	// runs (cost.Calibrator). The DP multiplies each candidate's model
	// cost by its factor, so platform choices improve with traffic. Nil
	// (or a cold calibrator) leaves every cost untouched. Because
	// ShardDiscount and failover re-planning run through the same DP,
	// both inherit calibrated costs automatically.
	Calibration *cost.Calibrator
	// Shards is the executor's intra-atom shard fan-out (≤1 = off). The
	// DP discounts the compute cost of shardable operator kinds on
	// non-distributed platforms by cost.ShardDiscount — distributed
	// platforms already price their internal parallelism, and
	// unshardable kinds run whole either way. The discount can flip a
	// platform assignment: a sharded single-node engine beats the
	// simulated cluster on mid-size inputs where the cluster's per-job
	// overhead still dominates.
	Shards int

	// The remaining options support adaptive re-optimization (the
	// executor re-plans a partially executed job with observed
	// statistics):
	//
	// CardOverrides replaces rule-derived cardinality estimates with
	// observed values for the given physical operator IDs.
	CardOverrides map[int]int64
	// ForcedAssignments pins individual operators to platforms
	// (already-executed operators keep their original assignment).
	ForcedAssignments map[int]engine.PlatformID
	// ExcludePlatforms removes platforms from consideration for every
	// not-yet-executed operator; Frozen operators keep their original
	// (forced) assignment even on an excluded platform, since they will
	// never execute again. The executor's cross-platform failover
	// re-plans with the quarantined platforms excluded.
	ExcludePlatforms map[engine.PlatformID]bool
	// Frozen marks already-executed operators: the atom splitter never
	// mixes frozen and unfrozen operators in one atom, so the executor
	// can skip fully-frozen atoms whose outputs it already holds.
	Frozen map[int]bool
}

// ExecutionPlan is the optimizer's output: the (possibly rewritten)
// physical plan, the per-operator platform assignment, the task atoms
// in a topologically valid execution order, nested loop-body plans,
// and the predicted cost.
type ExecutionPlan struct {
	Physical   *physical.Plan
	Assignment map[int]engine.PlatformID
	Atoms      []*engine.TaskAtom
	LoopBodies map[int]*ExecutionPlan // keyed by loop physical op ID
	Estimated  cost.Cost
	Estimates  *cost.Estimates
	// OpCosts is the estimated cost of each operator under its chosen
	// platform and algorithm (loops carry their whole body's cost,
	// multiplied by the expected iterations). The executor's audit
	// trail compares these predictions against measured runtimes.
	OpCosts map[int]cost.Cost
	// RawOpCosts / RawEstimates / RawEstimated are the same predictions
	// with calibration stripped: raw model costs on raw rule-derived
	// cardinalities. The executor records these in its spans and audits
	// so the calibrator always learns against the fixed, uncalibrated
	// model — learning against already-corrected estimates would feed
	// the correction back into itself. Without calibration they alias
	// the calibrated fields.
	RawOpCosts   map[int]cost.Cost
	RawEstimates *cost.Estimates
	RawEstimated cost.Cost
}

// String renders the execution plan as its atom sequence.
func (ep *ExecutionPlan) String() string {
	s := fmt.Sprintf("execution plan %q (est %v):\n", ep.Physical.Name, ep.Estimated.Total())
	for _, a := range ep.Atoms {
		s += "  " + a.String() + "\n"
		if a.Kind == engine.AtomLoop {
			if body := ep.LoopBodies[a.LoopOp.ID]; body != nil {
				for _, line := range splitLines(body.String()) {
					s += "    " + line + "\n"
				}
			}
		}
	}
	return s
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Optimize produces an execution plan for p over the registered
// platforms.
func Optimize(p *physical.Plan, reg *engine.Registry, opts Options) (*ExecutionPlan, error) {
	if opts.DoWhileIterGuess <= 0 {
		opts.DoWhileIterGuess = 10
	}
	if !opts.DisableRules {
		rules := opts.Rules
		if rules == nil {
			rules = DefaultRules()
		}
		if err := applyRules(p, rules); err != nil {
			return nil, err
		}
	}
	est := cost.EstimateCalibrated(p, opts.CardOverrides, opts.Calibration)
	rawEst := est
	if opts.Calibration != nil {
		rawEst = cost.EstimateWith(p, opts.CardOverrides)
	}
	return optimizeWith(p, reg, opts, est, rawEst)
}

func optimizeWith(p *physical.Plan, reg *engine.Registry, opts Options, est, rawEst *cost.Estimates) (*ExecutionPlan, error) {
	ep := &ExecutionPlan{
		Physical:     p,
		Assignment:   make(map[int]engine.PlatformID, len(p.Ops)),
		LoopBodies:   make(map[int]*ExecutionPlan),
		Estimates:    est,
		RawEstimates: rawEst,
		OpCosts:      make(map[int]cost.Cost, len(p.Ops)),
		RawOpCosts:   make(map[int]cost.Cost, len(p.Ops)),
	}
	// Optimize loop bodies first: a loop's cost and platform derive
	// from its body.
	loopCost := make(map[int]cost.Cost)
	rawLoopCost := make(map[int]cost.Cost)
	loopPlatform := make(map[int]engine.PlatformID)
	for _, op := range p.Ops {
		switch op.Kind() {
		case plan.KindRepeat, plan.KindDoWhile:
			body, err := optimizeWith(op.Body, reg, opts, est, rawEst)
			if err != nil {
				return nil, fmt.Errorf("optimizer: loop body of %s: %w", op.Name(), err)
			}
			iters := op.Logical.Times
			if op.Kind() == plan.KindDoWhile {
				iters = op.Logical.MaxIter
				if iters <= 0 {
					iters = opts.DoWhileIterGuess
				}
			}
			ep.LoopBodies[op.ID] = body
			loopCost[op.ID] = body.Estimated.Times(float64(iters))
			rawLoopCost[op.ID] = body.RawEstimated.Times(float64(iters))
			loopPlatform[op.ID] = body.Assignment[op.Body.SinkOp.ID]
		}
	}

	if err := assignPlatforms(p, reg, opts, est, ep, loopCost, rawLoopCost, loopPlatform); err != nil {
		return nil, err
	}
	atoms, err := splitAtoms(p, ep.Assignment, opts.Frozen)
	if err != nil {
		return nil, err
	}
	ep.Atoms = atoms
	return ep, nil
}

// choice is one DP cell: the best known way to have op's output
// materialised on a given platform.
type choice struct {
	total    time.Duration
	opCost   cost.Cost
	algo     physical.Algorithm
	inPlats  []engine.PlatformID // chosen platform per input
	feasible bool
}

// designatedRoots picks, per weakly-connected component of the plan,
// the zero-input operator with the smallest ID. The DP charges per-job
// startup once at the designated root instead of at every root, so an
// atom that happens to have several sources (a loop body reading both
// its LoopInput state and a broadcast dataset) is not charged one job
// submission per source.
func designatedRoots(p *physical.Plan) map[int]bool {
	parent := make(map[int]int, len(p.Ops))
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, op := range p.Ops {
		parent[op.ID] = op.ID
	}
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			parent[find(op.ID)] = find(in.ID)
		}
	}
	minRoot := map[int]int{} // component → smallest zero-input op ID
	for _, op := range p.Ops {
		if len(op.Inputs) != 0 {
			continue
		}
		c := find(op.ID)
		if best, ok := minRoot[c]; !ok || op.ID < best {
			minRoot[c] = op.ID
		}
	}
	out := make(map[int]bool, len(minRoot))
	for _, id := range minRoot {
		out[id] = true
	}
	return out
}

// assignPlatforms runs the DP over (operator, platform) states and
// backtracks the cheapest assignment into ep.
func assignPlatforms(p *physical.Plan, reg *engine.Registry, opts Options, est *cost.Estimates, ep *ExecutionPlan, loopCost, rawLoopCost map[int]cost.Cost, loopPlatform map[int]engine.PlatformID) error {
	platforms := reg.Platforms()
	if len(platforms) == 0 {
		return fmt.Errorf("optimizer: no platforms registered")
	}
	roots := designatedRoots(p)
	dp := make(map[int]map[engine.PlatformID]*choice, len(p.Ops))

	for _, op := range p.Ops {
		cells := make(map[engine.PlatformID]*choice)
		dp[op.ID] = cells

		inCards := make([]int64, len(op.Inputs))
		for i, in := range op.Inputs {
			inCards[i] = est.Cards[in.ID]
		}
		outCard := est.Cards[op.ID]

		// Loops: single pseudo-choice on the body's sink platform.
		if op.Kind() == plan.KindRepeat || op.Kind() == plan.KindDoWhile {
			pl := loopPlatform[op.ID]
			c := &choice{opCost: loopCost[op.ID], algo: physical.Default, feasible: true}
			c.total = c.opCost.Total()
			c.inPlats = make([]engine.PlatformID, len(op.Inputs))
			for i, in := range op.Inputs {
				bestIn, ok := cheapestInput(dp[in.ID], reg, est, in.ID, pl, op)
				if !ok {
					return fmt.Errorf("optimizer: no feasible platform chain into %s", op.Name())
				}
				c.inPlats[i] = bestIn.platform
				c.total += bestIn.cost
			}
			cells[pl] = c
			continue
		}

		for _, platform := range platforms {
			pl := platform.ID()
			if opts.FixedPlatform != "" && pl != opts.FixedPlatform {
				continue
			}
			if forced, ok := opts.ForcedAssignments[op.ID]; ok && pl != forced {
				continue
			}
			if opts.ExcludePlatforms[pl] && !opts.Frozen[op.ID] {
				continue
			}
			// Input picks depend only on the consumer platform.
			inPlats := make([]engine.PlatformID, len(op.Inputs))
			var inTotal time.Duration
			feasibleInputs := true
			for i, in := range op.Inputs {
				bestIn, found := cheapestInput(dp[in.ID], reg, est, in.ID, pl, op)
				if !found {
					feasibleInputs = false
					break
				}
				inPlats[i] = bestIn.platform
				inTotal += bestIn.cost
			}
			if !feasibleInputs {
				continue
			}
			// The per-job startup charge applies only when this
			// operator opens a new task atom on its platform: at the
			// component's designated root, and wherever an input
			// arrives from another platform. Within an atom, startup
			// is paid once.
			newAtom := len(op.Inputs) == 0 && roots[op.ID]
			for _, inPl := range inPlats {
				if inPl != pl {
					newAtom = true
				}
			}
			var best *choice
			for _, algo := range physical.Candidates(op) {
				m, ok := reg.MappingFor(pl, op.Kind(), algo)
				if !ok {
					continue
				}
				oc := m.Cost(op, inCards, outCard)
				if shardDiscounts(opts, platform.Profile(), op.Kind()) {
					oc = cost.ShardDiscount(oc, opts.Shards)
				}
				// Learned correction: scale the model's estimate by the
				// observed actual/estimated ratio for this (kind,
				// platform). CostFactor is 1 on a nil or cold calibrator.
				if f := opts.Calibration.CostFactor(op.Kind().String(), string(pl)); f != 1 {
					oc = oc.Times(f)
				}
				opTotal := oc.CPU + oc.IO + oc.Net
				if newAtom {
					opTotal += oc.Startup
				}
				c := &choice{opCost: oc, algo: algo, feasible: true,
					total: opTotal + inTotal, inPlats: inPlats}
				if best == nil || c.total < best.total {
					best = c
				}
			}
			if best != nil {
				cells[pl] = best
			}
		}
		if len(cells) == 0 {
			return fmt.Errorf("optimizer: no platform offers %s (kind %s)", op.Name(), op.Kind())
		}
	}

	// Pick the cheapest sink cell and backtrack. Cells live in a map,
	// so equal totals go to the lowest platform ID: the same plan must
	// always get the same assignment.
	sinkCells := dp[p.SinkOp.ID]
	var bestPl engine.PlatformID
	bestTotal := time.Duration(math.MaxInt64)
	for pl, c := range sinkCells {
		if c.total < bestTotal || (c.total == bestTotal && pl < bestPl) {
			bestTotal, bestPl = c.total, pl
		}
	}
	if bestPl == "" {
		return fmt.Errorf("optimizer: no feasible plan for %q", p.Name)
	}
	backtrack(p.SinkOp, bestPl, dp, ep)
	// Re-walk the chosen assignment to report the full cost vector
	// (the DP optimises the scalar total only).
	ep.Estimated, ep.RawEstimated = vectorCost(p, reg, opts, ep, loopCost, rawLoopCost, roots)
	return nil
}

// shardDiscounts reports whether the shard cost discount applies to an
// operator of the given kind on a platform with the given profile. The
// kinds mirror the executor's shardability classes (shard.go): the
// record-wise operators plus the combining exits. Sink is excluded —
// it is free anyway — and distributed platforms already price their
// own parallelism.
func shardDiscounts(opts Options, prof engine.Profile, kind plan.OpKind) bool {
	if opts.Shards <= 1 || prof.Distributed {
		return false
	}
	switch kind {
	case plan.KindMap, plan.KindFlatMap, plan.KindFilter,
		plan.KindReduceByKey, plan.KindReduce, plan.KindCount,
		plan.KindDistinct, plan.KindSort:
		return true
	}
	return false
}

type inPick struct {
	platform engine.PlatformID
	cost     time.Duration
}

// cheapestInput finds the input-platform choice minimising input
// subtree cost plus the conversion cost from that platform's native
// format to the consuming operator's wanted format — the consumer
// platform's native format, or, when the consumer is batch-capable for
// op (engine.Vectorized), the cheaper of native and channel.Batch.
// Pricing the batch alternative is what lets plans adopt the columnar
// format on edges where it wins.
func cheapestInput(cells map[engine.PlatformID]*choice, reg *engine.Registry, est *cost.Estimates, inID int, consumer engine.PlatformID, op *physical.Operator) (inPick, bool) {
	consumerPlat, _ := reg.Platform(consumer)
	best := inPick{cost: time.Duration(math.MaxInt64)}
	found := false
	for pl, c := range cells {
		if !c.feasible {
			continue
		}
		move := time.Duration(0)
		if pl != consumer {
			producerPlat, _ := reg.Platform(pl)
			mc, ok := moveCost(reg, producerPlat, consumerPlat, op, est.Bytes(inID))
			if !ok {
				continue
			}
			move = mc
		}
		// Ties go to the lowest platform ID, as in the sink pick.
		if total := c.total + move; total < best.cost || (total == best.cost && pl < best.platform) {
			best = inPick{platform: pl, cost: total}
			found = true
		}
	}
	return best, found
}

// moveCost prices moving an input produced on from's native format to
// the consuming operator op executing on to: the conversion path to
// to's native format, or to channel.Batch when that is cheaper and to
// is batch-capable for op. It mirrors the executor's per-op want-format
// decision (runComputeAtom), so the plan is priced the way it runs.
func moveCost(reg *engine.Registry, from, to engine.Platform, op *physical.Operator, bytes int64) (time.Duration, bool) {
	mc, ok := reg.Channels().PathCost(from.NativeFormat(), to.NativeFormat(), bytes)
	if vec, isVec := to.(engine.Vectorized); isVec && op != nil && vec.SupportsBatch(op) {
		if bc, bok := reg.Channels().PathCost(from.NativeFormat(), channel.Batch, bytes); bok && (!ok || bc < mc) {
			return bc, true
		}
	}
	return mc, ok
}

// backtrack fixes assignments and algorithms along the chosen DP path.
// On DAGs with shared sub-results the first visit wins; the cost
// estimate then slightly over-counts the shared subtree, which is an
// accepted approximation (plans are trees in practice).
func backtrack(op *physical.Operator, pl engine.PlatformID, dp map[int]map[engine.PlatformID]*choice, ep *ExecutionPlan) {
	if _, done := ep.Assignment[op.ID]; done {
		return
	}
	c := dp[op.ID][pl]
	ep.Assignment[op.ID] = pl
	op.Algo = c.algo
	for i, in := range op.Inputs {
		backtrack(in, c.inPlats[i], dp, ep)
	}
}

// vectorCost re-walks the chosen assignment summing full cost vectors
// (the DP optimises the scalar total only), retaining each operator's
// cost in ep.OpCosts for the executor's estimate-vs-actual audit. It
// fills the raw (uncalibrated) twin in the same walk: raw model costs
// on raw cardinalities, which is what the calibrator learns against.
func vectorCost(p *physical.Plan, reg *engine.Registry, opts Options, ep *ExecutionPlan, loopCost, rawLoopCost map[int]cost.Cost, roots map[int]bool) (total, rawTotal cost.Cost) {
	est, rawEst := ep.Estimates, ep.RawEstimates
	for _, op := range p.Ops {
		pl := ep.Assignment[op.ID]
		if lc, isLoop := loopCost[op.ID]; isLoop {
			ep.OpCosts[op.ID] = lc
			ep.RawOpCosts[op.ID] = rawLoopCost[op.ID]
			total = total.Plus(lc)
			rawTotal = rawTotal.Plus(rawLoopCost[op.ID])
		} else {
			inCards := make([]int64, len(op.Inputs))
			rawIn := make([]int64, len(op.Inputs))
			for i, in := range op.Inputs {
				inCards[i] = est.Cards[in.ID]
				rawIn[i] = rawEst.Cards[in.ID]
			}
			if m, ok := reg.MappingFor(pl, op.Kind(), op.Algo); ok {
				oc := m.Cost(op, inCards, est.Cards[op.ID])
				raw := oc
				if rawEst != est {
					raw = m.Cost(op, rawIn, rawEst.Cards[op.ID])
				}
				if pf, pok := reg.Platform(pl); pok && shardDiscounts(opts, pf.Profile(), op.Kind()) {
					oc = cost.ShardDiscount(oc, opts.Shards)
					raw = cost.ShardDiscount(raw, opts.Shards)
				}
				if f := opts.Calibration.CostFactor(op.Kind().String(), string(pl)); f != 1 {
					oc = oc.Times(f)
				}
				newAtom := len(op.Inputs) == 0 && roots[op.ID]
				for _, in := range op.Inputs {
					if ep.Assignment[in.ID] != pl {
						newAtom = true
					}
				}
				if !newAtom {
					oc.Startup = 0
					raw.Startup = 0
				}
				ep.OpCosts[op.ID] = oc
				ep.RawOpCosts[op.ID] = raw
				total = total.Plus(oc)
				rawTotal = rawTotal.Plus(raw)
			}
		}
		for _, in := range op.Inputs {
			inPl := ep.Assignment[in.ID]
			if inPl == pl {
				continue
			}
			from, _ := reg.Platform(inPl)
			to, _ := reg.Platform(pl)
			if mc, ok := moveCost(reg, from, to, op, est.Bytes(in.ID)); ok {
				total = total.Plus(cost.Cost{Net: mc})
				rawTotal = rawTotal.Plus(cost.Cost{Net: mc})
			}
		}
	}
	return total, rawTotal
}
