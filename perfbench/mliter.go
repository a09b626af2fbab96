package main

import (
	"fmt"

	"rheem"
	"rheem/internal/apps/ml"
	"rheem/internal/core/executor"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

// mlTraining is one training of the ml-iterative mix.
type mlTraining struct {
	name     string
	template *ml.Template
	// score rates a final state against the training points; it must
	// reach floor.
	score func(state []data.Record) (float64, error)
	floor float64
	// tolerant, when set, is the op's closedOp.tolerant.
	tolerant func(got, want []data.Record) error
}

// mlSetup is the ml-iterative input and context.
type mlSetup struct {
	trainings []mlTraining
	ctx       *rheem.Context
}

// setupML generates the training points and starts a context with the
// default configuration.
func setupML(seed uint64) (*mlSetup, error) {
	big := datagen.Points(datagen.PointsConfig{N: 5000, Dim: 10, Noise: 0.05, Seed: seed})
	small := datagen.Points(datagen.PointsConfig{N: 200, Dim: 10, Noise: 0.05, Seed: seed + 1})
	svmScore := func(points []data.Record) func([]data.Record) (float64, error) {
		return func(state []data.Record) (float64, error) {
			w, err := ml.Weights(state)
			if err != nil {
				return 0, err
			}
			return ml.Accuracy(w, points), nil
		}
	}
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return nil, err
	}
	return &mlSetup{ctx: ctx, trainings: []mlTraining{
		{
			name:     "svm-5k",
			template: ml.SVM(big, ml.GradientConfig{Iterations: 30, Dim: 10}),
			score:    svmScore(big),
			floor:    0.85,
		},
		{
			name:     "kmeans-5k",
			template: ml.KMeans(ml.IndexPoints(big), ml.KMeansConfig{K: 4, Iterations: 10}),
			score:    func(state []data.Record) (float64, error) { return purity(state, big), nil },
			floor:    0.85,
			// Hash grouping emits groups in map order, so the centroids
			// come out in varying order and their float sums in varying
			// rounding from one run to the next.
			tolerant: func(got, want []data.Record) error {
				return approxEqual(sortedByKey(got), sortedByKey(want), 1e-9)
			},
		},
		{
			name:     "svm-200",
			template: ml.SVM(small, ml.GradientConfig{Iterations: 30, Dim: 10}),
			score:    svmScore(small),
			floor:    0.85,
		},
	}}, nil
}

// purity scores a K-means final state against the points' labels: the
// share of points whose cluster's majority label is their own.
func purity(state []data.Record, points []data.Record) float64 {
	centroids := ml.Centroids(state)
	counts := map[int64]map[float64]int{}
	for _, p := range points {
		c := ml.Assign(centroids, p.Field(1).Vec())
		if counts[c] == nil {
			counts[c] = map[float64]int{}
		}
		counts[c][p.Field(0).Float()]++
	}
	majority := 0
	for _, byLabel := range counts {
		best := 0
		for _, n := range byLabel {
			best = max(best, n)
		}
		majority += best
	}
	return float64(majority) / float64(len(points))
}

// trainingPlan builds the logical plan ml.Template.Run executes, so the
// traced path can time each layer; the traced run checks that both
// produce identical bytes.
func trainingPlan(rc *rheem.Context, t *ml.Template) (*plan.Plan, error) {
	init, err := t.Initialize()
	if err != nil {
		return nil, err
	}
	state := rc.NewJob(t.Name).ReadCollection("init", init)
	if t.Converged != nil {
		return state.DoWhile(t.Converged, t.Iterations, t.Process).Plan()
	}
	return state.Repeat(t.Iterations, t.Process).Plan()
}

// mlOps builds the ml-iterative mix. Every training must clear its
// score floor and return the same output on every run.
func mlOps(s *mlSetup) []*closedOp {
	var ops []*closedOp
	for _, tr := range s.trainings {
		tr := tr
		ops = append(ops, &closedOp{
			name: tr.name,
			user: func() ([]data.Record, *rheem.Report, error) {
				defer releaseTemp(s.ctx)
				return tr.template.Run(s.ctx)
			},
			traced: func(t *opTrace) ([]data.Record, error) {
				var p *plan.Plan
				if err := t.time("plan.build", func() (err error) {
					p, err = trainingPlan(s.ctx, tr.template)
					return err
				}); err != nil {
					return nil, err
				}
				return runEngine(s.ctx, p, executor.Options{}, t, tr.template.Iterations)
			},
			check: func(got []data.Record) error {
				score, err := tr.score(got)
				if err != nil {
					return err
				}
				if score < tr.floor {
					return fmt.Errorf("score %.3f below floor %.2f", score, tr.floor)
				}
				return nil
			},
			tolerant: tr.tolerant,
		})
	}
	return ops
}

func runMLIterative(cfg runConfig) (*outcome, error) {
	s, setupS, err := medianSetup(func() (*mlSetup, error) { return setupML(cfg.seed) },
		func(*mlSetup) {})
	if err != nil {
		return nil, fmt.Errorf("ml-iterative setup: %w", err)
	}
	return runClosedLoop(cfg, mlOps(s), setupS)
}
