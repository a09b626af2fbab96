package optimizer

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

func fullRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg, javaengine.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{JobOverhead: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := relengine.Register(reg, nil, relengine.Config{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func physOf(t *testing.T, build func(b *plan.Builder)) *physical.Plan {
	t.Helper()
	b := plan.NewBuilder("p")
	build(b)
	lp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestOptimizeAssignsEverythingAndSplitsAtoms(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 1000
		f := b.Filter(s, func(data.Record) (bool, error) { return true, nil })
		g := b.ReduceByKey(f, plan.FieldKey(0), plan.SumField(0))
		b.Collect(g)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pp.Ops {
		if _, ok := ep.Assignment[op.ID]; !ok {
			t.Errorf("%s unassigned", op.Name())
		}
		if op.Algo == "" {
			t.Errorf("%s has no algorithm", op.Name())
		}
	}
	if len(ep.Atoms) == 0 {
		t.Fatal("no atoms")
	}
	if ep.Estimated.Total() <= 0 {
		t.Error("no estimated cost")
	}
	if !strings.Contains(ep.String(), "atom#") {
		t.Error("String misses atoms")
	}
}

func TestFixedPlatformPinsEverything(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Distinct(s))
	})
	for _, pin := range []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID} {
		ep, err := Optimize(pp, fullRegistry(t), Options{FixedPlatform: pin})
		if err != nil {
			t.Fatalf("%s: %v", pin, err)
		}
		for id, pl := range ep.Assignment {
			if pl != pin {
				t.Errorf("pin %s: op %d on %s", pin, id, pl)
			}
		}
		// Single platform ⇒ single compute atom.
		if len(ep.Atoms) != 1 {
			t.Errorf("pin %s: %d atoms", pin, len(ep.Atoms))
		}
	}
}

func TestLargeInputPrefersSpark(t *testing.T) {
	reg := fullRegistry(t)
	small := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	big := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 200_000_000
		b.Collect(b.Map(s, plan.Identity()))
	})
	epSmall, err := Optimize(small, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epBig, err := Optimize(big, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range epSmall.Assignment {
		if pl == sparksim.ID {
			t.Error("small input landed on spark")
		}
	}
	sparkUsed := false
	for _, pl := range epBig.Assignment {
		if pl == sparksim.ID {
			sparkUsed = true
		}
	}
	if !sparkUsed {
		t.Errorf("huge input avoided spark: %v", epBig.Assignment)
	}
}

func TestIEJoinChosenForConditionedThetaJoin(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(nil))
		l.CardHint = 10000
		r := b.Source("r", plan.Collection(nil))
		r.CardHint = 10000
		tj := b.ThetaJoin(l, r, nil,
			plan.IECondition{LeftField: 0, Op: plan.Greater, RightField: 0},
			plan.IECondition{LeftField: 1, Op: plan.Less, RightField: 1})
		b.Collect(tj)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range ep.Physical.Ops {
		if op.Kind() == plan.KindThetaJoin {
			found = true
			if op.Algo != physical.IEJoin {
				t.Errorf("theta join algo = %s, want ie-join", op.Algo)
			}
		}
	}
	if !found {
		t.Fatal("no theta join in plan")
	}
}

func TestLoopBodiesOptimizedRecursively(t *testing.T) {
	bb := plan.NewBodyBuilder("body")
	in := bb.LoopInput("st")
	m := bb.Map(in, plan.Identity())
	bb.Collect(m)
	body := bb.MustBuild()

	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 10
		rep := b.Repeat(s, 5, body)
		b.Collect(rep)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var loopID int = -1
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindRepeat {
			loopID = op.ID
		}
	}
	bodyEP := ep.LoopBodies[loopID]
	if bodyEP == nil {
		t.Fatal("loop body not optimized")
	}
	if len(bodyEP.Atoms) == 0 {
		t.Error("loop body has no atoms")
	}
	// Loop atom present in outer plan.
	loops := 0
	for _, a := range ep.Atoms {
		if a.Kind == engine.AtomLoop {
			loops++
		}
	}
	if loops != 1 {
		t.Errorf("%d loop atoms", loops)
	}
}

func TestAtomConvexityOnDiamond(t *testing.T) {
	// Diamond: source → (mapA, mapB) → union. All on one platform must
	// fold into one atom; the atom order must stay valid.
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		a := b.Map(s, plan.Identity())
		c := b.Map(s, plan.Identity())
		u := b.Union(a, c)
		b.Collect(u)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Atoms) != 1 {
		t.Errorf("diamond split into %d atoms", len(ep.Atoms))
	}
	// Exits: only the sink leaves the atom.
	if len(ep.Atoms[0].Exits) != 1 {
		t.Errorf("diamond atom has %d exits", len(ep.Atoms[0].Exits))
	}
}

func TestNoPlatformForKindFails(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg, javaengine.Config{}); err != nil {
		t.Fatal(err)
	}
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		b.Collect(s)
	})
	// Empty registry entirely.
	empty := engine.NewRegistry()
	if _, err := Optimize(pp, empty, Options{}); err == nil {
		t.Error("optimization without platforms accepted")
	}
	_ = reg
}

func TestExcludePlatformsAvoidsQuarantined(t *testing.T) {
	reg := fullRegistry(t)
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	// Small input would normally land on java; exclude it and demand
	// the plan avoids it everywhere.
	ep, err := Optimize(pp, reg, Options{
		ExcludePlatforms: map[engine.PlatformID]bool{javaengine.ID: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, pl := range ep.Assignment {
		if pl == javaengine.ID {
			t.Errorf("op %d assigned to excluded platform", id)
		}
	}
	// Excluding every capable platform must fail, not silently pick one.
	_, err = Optimize(pp, reg, Options{ExcludePlatforms: map[engine.PlatformID]bool{
		javaengine.ID: true, sparksim.ID: true, relengine.ID: true,
	}})
	if err == nil {
		t.Error("optimization with every platform excluded accepted")
	}
}

func TestExcludePlatformsKeepsFrozenAssignments(t *testing.T) {
	reg := fullRegistry(t)
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	srcID := -1
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			srcID = op.ID
		}
	}
	if srcID < 0 {
		t.Fatal("no source op")
	}
	// The frozen (already-executed) source keeps its assignment on the
	// excluded platform — it will never run again — while everything
	// downstream is re-planned off it. This is the failover re-planning
	// contract.
	ep, err := Optimize(pp, reg, Options{
		DisableRules:      true,
		Frozen:            map[int]bool{srcID: true},
		ForcedAssignments: map[int]engine.PlatformID{srcID: javaengine.ID},
		ExcludePlatforms:  map[engine.PlatformID]bool{javaengine.ID: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Assignment[srcID] != javaengine.ID {
		t.Errorf("frozen source moved to %s", ep.Assignment[srcID])
	}
	for id, pl := range ep.Assignment {
		if id != srcID && pl == javaengine.ID {
			t.Errorf("re-planned op %d still on excluded platform", id)
		}
	}
}

// TestOptimizeBreaksCostTiesByPlatformID gives two platforms identical
// cost models, so every plan costs exactly the same on either: the
// assignment must not depend on map iteration order, and the tie goes
// to the lowest platform ID.
func TestOptimizeBreaksCostTiesByPlatformID(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg, javaengine.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	flat := cost.ConstModel(cost.Cost{Startup: time.Millisecond, CPU: time.Millisecond})
	for _, id := range []engine.PlatformID{javaengine.ID, sparksim.ID} {
		if reg.RewriteCosts(id, func(cost.Model) cost.Model { return flat }) == 0 {
			t.Fatalf("no mappings rewritten on %s", id)
		}
	}
	var first map[int]engine.PlatformID
	for i := 0; i < 100; i++ {
		pp := physOf(t, func(b *plan.Builder) {
			s := b.Source("s", plan.Collection(nil))
			s.CardHint = 1000
			f := b.Filter(s, func(data.Record) (bool, error) { return true, nil })
			b.Collect(f)
		})
		ep, err := Optimize(pp, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = ep.Assignment
			continue
		}
		if !reflect.DeepEqual(ep.Assignment, first) {
			t.Fatalf("optimization %d assigned %v, first assigned %v", i, ep.Assignment, first)
		}
	}
	for id, pl := range first {
		if pl != javaengine.ID {
			t.Errorf("op %d tied onto %s, want the lowest platform ID %s", id, pl, javaengine.ID)
		}
	}
}
