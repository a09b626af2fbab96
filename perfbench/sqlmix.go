package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/bench"
	"rheem/internal/core/executor"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

// sqlRows is the size of each large table of the sql-analytics mix.
const sqlRows = 200_000

// sqlDims is the row count of the small dimension table.
const sqlDims = 50

var regions = []string{"andes", "baltic", "congo", "danube", "indus", "mekong", "volga"}

// sqlTables is the sql-analytics input, generated from the seed.
type sqlTables struct {
	facts    []data.Record // id, dim, cat, amount, qty — all Int
	dims     []data.Record // id Int, region Str
	words    []data.Record // word Str
	readings []data.Record // datagen.SensorSchema
	cat      *rheemql.Catalog
	ctx      *rheem.Context
}

var (
	factsSchema = data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "dim", Type: data.KindInt},
		data.Field{Name: "cat", Type: data.KindInt},
		data.Field{Name: "amount", Type: data.KindInt},
		data.Field{Name: "qty", Type: data.KindInt},
	)
	dimsSchema = data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "region", Type: data.KindString},
	)
	wordsSchema = data.MustSchema(data.Field{Name: "word", Type: data.KindString})
)

// Field positions in facts.
const (
	factID = iota
	factDim
	factCat
	factAmount
	factQty
)

// setupSQL generates the tables and starts a context with the default
// configuration.
func setupSQL(seed uint64) (*sqlTables, error) {
	r := rand.New(rand.NewPCG(seed, seed^0x5eed))
	t := &sqlTables{facts: make([]data.Record, sqlRows), dims: make([]data.Record, sqlDims)}
	for i := range t.facts {
		t.facts[i] = data.NewRecord(
			data.Int(int64(i)),
			data.Int(int64(r.IntN(sqlDims))),
			data.Int(int64(r.IntN(16))),
			data.Int(int64(r.IntN(10_000))),
			data.Int(int64(1+r.IntN(100))),
		)
	}
	for i := range t.dims {
		t.dims[i] = data.NewRecord(data.Int(int64(i)), data.Str(regions[(uint64(i)*3+seed)%uint64(len(regions))]))
	}
	t.words = datagen.Words(sqlRows, seed+1)
	t.readings = datagen.Sensors(datagen.SensorConfig{N: sqlRows, Wells: 32, Seed: seed + 2})
	t.cat = rheemql.NewCatalog()
	for _, tbl := range []struct {
		name   string
		schema *data.Schema
		recs   []data.Record
	}{{"facts", factsSchema, t.facts}, {"dims", dimsSchema, t.dims}, {"words", wordsSchema, t.words}} {
		if err := t.cat.Register(tbl.name, tbl.schema, tbl.recs); err != nil {
			return nil, err
		}
	}
	var err error
	t.ctx, err = rheem.NewContext(rheem.Config{})
	return t, err
}

// sqlQuery is one RheemQL query of the mix with its plain-Go reference.
type sqlQuery struct {
	name string
	sql  string
	ref  func(*sqlTables) []data.Record
}

var sqlQueries = []sqlQuery{
	{
		name: "groupagg",
		sql:  "SELECT cat, COUNT(*) AS n, SUM(amount) AS total, AVG(qty) AS avg_qty, MAX(amount) AS top FROM facts GROUP BY cat ORDER BY cat",
		ref:  refGroupAgg,
	},
	{
		name: "topfilter",
		sql:  "SELECT id, amount, qty FROM facts WHERE amount >= 9990 AND qty > 50 ORDER BY id DESC LIMIT 25",
		ref:  refTopFilter,
	},
	{
		name: "wordcount",
		sql:  "SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word",
		ref:  refWordCount,
	},
	{
		name: "countpred",
		sql:  "SELECT COUNT(*) AS n FROM facts WHERE cat = 3 AND amount < 2500",
		ref:  refCountPred,
	},
	{
		name: "join",
		sql:  "SELECT region, COUNT(*) AS n, SUM(qty) AS units FROM facts JOIN dims ON facts.dim = dims.id GROUP BY region ORDER BY region",
		ref:  refJoin,
	},
}

func refGroupAgg(t *sqlTables) []data.Record {
	type acc struct{ n, total, qty, top int64 }
	groups := map[int64]*acc{}
	for _, r := range t.facts {
		c := r.Field(factCat).Int()
		a := groups[c]
		if a == nil {
			a = &acc{top: r.Field(factAmount).Int()}
			groups[c] = a
		}
		a.n++
		a.total += r.Field(factAmount).Int()
		a.qty += r.Field(factQty).Int()
		a.top = max(a.top, r.Field(factAmount).Int())
	}
	var out []data.Record
	for _, c := range sortedKeys(groups) {
		a := groups[c]
		out = append(out, data.NewRecord(data.Int(c), data.Int(a.n), data.Float(float64(a.total)),
			data.Float(float64(a.qty)/float64(a.n)), data.Int(a.top)))
	}
	return out
}

func refTopFilter(t *sqlTables) []data.Record {
	var out []data.Record
	for i := len(t.facts) - 1; i >= 0 && len(out) < 25; i-- {
		r := t.facts[i]
		if r.Field(factAmount).Int() >= 9990 && r.Field(factQty).Int() > 50 {
			out = append(out, r.Project(factID, factAmount, factQty))
		}
	}
	return out
}

func refWordCount(t *sqlTables) []data.Record {
	counts := map[string]int64{}
	for _, r := range t.words {
		counts[r.Field(0).Str()]++
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	out := make([]data.Record, len(words))
	for i, w := range words {
		out[i] = data.NewRecord(data.Str(w), data.Int(counts[w]))
	}
	return out
}

func refCountPred(t *sqlTables) []data.Record {
	var n int64
	for _, r := range t.facts {
		if r.Field(factCat).Int() == 3 && r.Field(factAmount).Int() < 2500 {
			n++
		}
	}
	return []data.Record{data.NewRecord(data.Int(n))}
}

func refJoin(t *sqlTables) []data.Record {
	regionOf := map[int64]string{}
	for _, d := range t.dims {
		regionOf[d.Field(0).Int()] = d.Field(1).Str()
	}
	type acc struct{ n, units int64 }
	groups := map[string]*acc{}
	for _, r := range t.facts {
		reg, ok := regionOf[r.Field(factDim).Int()]
		if !ok {
			continue
		}
		a := groups[reg]
		if a == nil {
			a = &acc{}
			groups[reg] = a
		}
		a.n++
		a.units += r.Field(factQty).Int()
	}
	names := make([]string, 0, len(groups))
	for reg := range groups {
		names = append(names, reg)
	}
	sort.Strings(names)
	out := make([]data.Record, len(names))
	for i, reg := range names {
		out[i] = data.NewRecord(data.Str(reg), data.Int(groups[reg].n), data.Float(float64(groups[reg].units)))
	}
	return out
}

// refSensor is the §1 sensor pipeline computed directly: per-well means
// of normalised pressure, temperature and flow, ordered by well.
func refSensor(readings []data.Record) []data.Record {
	type acc struct {
		p, t, f float64
		n       int64
	}
	groups := map[int64]*acc{}
	for _, r := range readings {
		w := r.Field(0).Int()
		a := groups[w]
		if a == nil {
			a = &acc{}
			groups[w] = a
		}
		a.p += max(r.Field(2).Float()*6.894, 0)
		a.t += r.Field(3).Float()
		a.f += r.Field(4).Float()
		a.n++
	}
	var out []data.Record
	for _, w := range sortedKeys(groups) {
		a := groups[w]
		n := float64(a.n)
		out = append(out, data.NewRecord(data.Int(w), data.Vec([]float64{a.p / n, a.t / n, a.f / n})))
	}
	return out
}

// sensorPlan builds the same plan as bench.SensorPipeline without
// running it, so the traced path can time each layer; the traced run
// checks that both produce identical bytes.
func sensorPlan(rc *rheem.Context, readings []data.Record) (*plan.Plan, error) {
	job := rc.NewJob("sensor-features")
	return job.ReadCollection("readings", readings).
		Map(func(r data.Record) (data.Record, error) {
			p := r.Field(2).Float() * 6.894
			if p < 0 {
				p = 0
			}
			return data.NewRecord(r.Field(0),
				data.Float(p), data.Float(r.Field(3).Float()), data.Float(r.Field(4).Float()),
				data.Int(1)), nil
		}).
		ReduceByKey(plan.FieldKey(0), func(a, b data.Record) (data.Record, error) {
			return data.NewRecord(a.Field(0),
				data.Float(a.Field(1).Float()+b.Field(1).Float()),
				data.Float(a.Field(2).Float()+b.Field(2).Float()),
				data.Float(a.Field(3).Float()+b.Field(3).Float()),
				data.Int(a.Field(4).Int()+b.Field(4).Int())), nil
		}).
		Map(func(r data.Record) (data.Record, error) {
			n := float64(r.Field(4).Int())
			return data.NewRecord(r.Field(0), data.Vec([]float64{
				r.Field(1).Float() / n, r.Field(2).Float() / n, r.Field(3).Float() / n,
			})), nil
		}).
		Sort(plan.FieldKey(0), false).
		Plan()
}

// colChainThreshold is the column-hint pipeline's filter operand.
const colChainThreshold = 5000

// colChainPlan is the column-hint pipeline: FilterWhere(amount <
// threshold) → ProjectCols(amount, qty) → AggregateCols(sum, sum).
func colChainPlan(facts []data.Record) (*plan.Plan, error) {
	b := plan.NewBuilder("colchain")
	s := b.Source("facts", plan.Collection(facts))
	s.CardHint = int64(len(facts))
	f := b.FilterWhere(s, factAmount, plan.Less, data.Int(colChainThreshold))
	p := b.ProjectCols(f, factAmount, factQty)
	b.Collect(b.AggregateCols(p, plan.AggSum, plan.AggSum))
	return b.Build()
}

func refColChain(facts []data.Record) []data.Record {
	var amount, qty int64
	for _, r := range facts {
		if a := r.Field(factAmount).Int(); a < colChainThreshold {
			amount += a
			qty += r.Field(factQty).Int()
		}
	}
	return []data.Record{data.NewRecord(data.Int(amount), data.Int(qty))}
}

// sqlOps builds the sql-analytics mix over the tables.
func sqlOps(t *sqlTables) []*closedOp {
	var ops []*closedOp
	for _, q := range sqlQueries {
		q := q
		ops = append(ops, &closedOp{
			name: q.name,
			user: func() ([]data.Record, *rheem.Report, error) {
				recs, _, rep, err := rheemql.Run(t.ctx, t.cat, q.sql)
				releaseTemp(t.ctx)
				return recs, rep, err
			},
			traced: func(tr *opTrace) ([]data.Record, error) {
				var parsed *rheemql.Query
				if err := tr.time("rheemql.parse", func() (err error) {
					parsed, err = rheemql.Parse(q.sql)
					return err
				}); err != nil {
					return nil, err
				}
				var compiled *rheemql.Compiled
				if err := tr.time("rheemql.compile", func() (err error) {
					compiled, err = rheemql.Compile(parsed, t.cat)
					return err
				}); err != nil {
					return nil, err
				}
				return runEngine(t.ctx, compiled.Plan, executor.Options{}, tr, 0)
			},
			check: exactly(q.ref(t)),
		})
	}
	sensorRef := refSensor(t.readings)
	ops = append(ops, &closedOp{
		name: "sensor",
		user: func() ([]data.Record, *rheem.Report, error) {
			defer releaseTemp(t.ctx)
			return bench.SensorPipeline(t.ctx, t.readings)
		},
		traced: func(tr *opTrace) ([]data.Record, error) {
			var p *plan.Plan
			if err := tr.time("plan.build", func() (err error) {
				p, err = sensorPlan(t.ctx, t.readings)
				return err
			}); err != nil {
				return nil, err
			}
			return runEngine(t.ctx, p, executor.Options{}, tr, 0)
		},
		check: func(got []data.Record) error { return approxEqual(got, sensorRef, 1e-9) },
		// Platforms fold the per-well float sums in their own order.
		tolerant: func(got, want []data.Record) error { return approxEqual(got, want, 1e-9) },
	})
	ops = append(ops, &closedOp{
		name: "colchain",
		user: func() ([]data.Record, *rheem.Report, error) {
			p, err := colChainPlan(t.facts)
			if err != nil {
				return nil, nil, err
			}
			defer releaseTemp(t.ctx)
			return t.ctx.Execute(p)
		},
		traced: func(tr *opTrace) ([]data.Record, error) {
			var p *plan.Plan
			if err := tr.time("plan.build", func() (err error) {
				p, err = colChainPlan(t.facts)
				return err
			}); err != nil {
				return nil, err
			}
			return runEngine(t.ctx, p, executor.Options{}, tr, 0)
		},
		check: exactly(refColChain(t.facts)),
	})
	return ops
}

func runSQLAnalytics(cfg runConfig) (*outcome, error) {
	t, setupS, err := medianSetup(func() (*sqlTables, error) { return setupSQL(cfg.seed) },
		func(*sqlTables) {})
	if err != nil {
		return nil, fmt.Errorf("sql-analytics setup: %w", err)
	}
	return runClosedLoop(cfg, sqlOps(t), setupS)
}

// sortedKeys returns a map's integer keys in ascending order.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
