package ml

import (
	"fmt"
	"math"
	"sort"

	"hpas/internal/xrand"
)

// ForestOptions configure a random forest.
type ForestOptions struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds each tree (0 = unbounded).
	MaxDepth int
	// MTry is features per split; 0 picks sqrt(NumFeatures).
	MTry int
	// Seed drives bootstrap and feature sampling.
	Seed uint64
}

// Forest is a bagged random forest: each tree trains on a bootstrap
// resample with per-split feature subsampling, and prediction is a
// majority vote.
type Forest struct {
	opts    ForestOptions
	trees   []*Tree
	classes int
	oob     float64
	oobOK   bool
}

// NewForest returns an untrained random forest.
func NewForest(opts ForestOptions) *Forest {
	if opts.Trees <= 0 {
		opts.Trees = 50
	}
	return &Forest{opts: opts}
}

// Fit implements Classifier.
func (f *Forest) Fit(ds *Dataset, idx []int) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if idx == nil {
		idx = make([]int, ds.NumSamples())
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return fmt.Errorf("ml: empty training subset")
	}
	f.classes = ds.NumClasses()
	mtry := f.opts.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(ds.NumFeatures())))
		if mtry < 1 {
			mtry = 1
		}
	}
	rng := xrand.New(f.opts.Seed + 0xf0e5)
	f.trees = f.trees[:0]
	// Out-of-bag bookkeeping: votes from trees that did not see a sample.
	oobVotes := make([][]float64, ds.NumSamples())
	for b := 0; b < f.opts.Trees; b++ {
		boot := make([]int, len(idx))
		inBag := make(map[int]bool, len(idx))
		for i := range boot {
			boot[i] = idx[rng.Intn(len(idx))]
			inBag[boot[i]] = true
		}
		t := NewTree(TreeOptions{MaxDepth: f.opts.MaxDepth, MTry: mtry, Seed: rng.Uint64()})
		if err := t.Fit(ds, boot); err != nil {
			return err
		}
		f.trees = append(f.trees, t)
		for _, i := range idx {
			if inBag[i] {
				continue
			}
			if oobVotes[i] == nil {
				oobVotes[i] = make([]float64, f.classes)
			}
			oobVotes[i][t.Predict(ds.X[i])]++
		}
	}
	// OOB error: misclassification rate over samples with any OOB vote.
	var wrong, counted int
	for _, i := range idx {
		if oobVotes[i] == nil {
			continue
		}
		counted++
		if argmax(oobVotes[i]) != ds.Y[i] {
			wrong++
		}
	}
	if counted > 0 {
		f.oob = float64(wrong) / float64(counted)
		f.oobOK = true
	}
	return nil
}

// OOBError returns the out-of-bag misclassification rate estimated
// during Fit and whether it is available (it is not when every sample
// appeared in every bootstrap).
func (f *Forest) OOBError() (float64, bool) { return f.oob, f.oobOK }

// FeatureImportance returns the per-feature mean decrease in impurity
// averaged over the ensemble's trees, normalized to sum to 1.
func (f *Forest) FeatureImportance() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	sum := make([]float64, len(f.trees[0].importance))
	for _, t := range f.trees {
		for i, v := range t.FeatureImportance() {
			sum[i] += v
		}
	}
	var total float64
	for _, v := range sum {
		total += v
	}
	if total > 0 {
		for i := range sum {
			sum[i] /= total
		}
	}
	return sum
}

// TopFeatures returns the indices of the k most important features in
// descending importance order.
func (f *Forest) TopFeatures(k int) []int {
	imp := f.FeatureImportance()
	idx := make([]int, len(imp))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Predict implements Classifier (majority vote; ties break to the lower
// class index).
func (f *Forest) Predict(x []float64) int {
	return argmax(f.Votes(x))
}

// Votes returns the normalized per-class vote shares for x (summing to
// 1 for a trained forest). Online consumers use the winning share as a
// prediction-confidence signal.
func (f *Forest) Votes(x []float64) []float64 {
	return f.VotesInto(make([]float64, 0, f.classes), x)
}

// VotesInto is Votes appending the shares to dst[:0]'s storage: a
// caller classifying window after window passes the slice it got back
// last time and allocates nothing.
func (f *Forest) VotesInto(dst, x []float64) []float64 {
	votes := append(dst[:0], make([]float64, f.classes)...)
	if len(f.trees) == 0 {
		return votes
	}
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	for i := range votes {
		votes[i] /= float64(len(f.trees))
	}
	return votes
}

// AdaBoostOptions configure SAMME AdaBoost.
type AdaBoostOptions struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int
	// MaxDepth bounds the weak learners (default 2, shallow trees).
	MaxDepth int
	// Seed for tie-breaking reproducibility.
	Seed uint64
}

// AdaBoost is the multi-class SAMME boosting algorithm over shallow CART
// trees with sample weights.
type AdaBoost struct {
	opts    AdaBoostOptions
	stumps  []*Tree
	alphas  []float64
	classes int
}

// NewAdaBoost returns an untrained AdaBoost classifier.
func NewAdaBoost(opts AdaBoostOptions) *AdaBoost {
	if opts.Rounds <= 0 {
		opts.Rounds = 50
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 2
	}
	return &AdaBoost{opts: opts}
}

// Fit implements Classifier.
func (a *AdaBoost) Fit(ds *Dataset, idx []int) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if idx == nil {
		idx = make([]int, ds.NumSamples())
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return fmt.Errorf("ml: empty training subset")
	}
	a.classes = ds.NumClasses()
	k := float64(a.classes)
	w := make([]float64, ds.NumSamples())
	for _, i := range idx {
		w[i] = 1 / float64(len(idx))
	}
	a.stumps = a.stumps[:0]
	a.alphas = a.alphas[:0]
	for round := 0; round < a.opts.Rounds; round++ {
		t := NewTree(TreeOptions{MaxDepth: a.opts.MaxDepth, Seed: a.opts.Seed + uint64(round)})
		if err := t.FitWeighted(ds, idx, w); err != nil {
			return err
		}
		var errW, total float64
		miss := make([]bool, len(idx))
		for j, i := range idx {
			total += w[i]
			if t.Predict(ds.X[i]) != ds.Y[i] {
				errW += w[i]
				miss[j] = true
			}
		}
		if total <= 0 {
			break
		}
		e := errW / total
		if e >= 1-1/k {
			// Weak learner no better than chance: stop boosting.
			if len(a.stumps) == 0 {
				a.stumps = append(a.stumps, t)
				a.alphas = append(a.alphas, 1)
			}
			break
		}
		if e < 1e-10 {
			e = 1e-10
		}
		alpha := math.Log((1-e)/e) + math.Log(k-1)
		a.stumps = append(a.stumps, t)
		a.alphas = append(a.alphas, alpha)
		if e <= 1e-10 {
			break // perfect learner; further rounds are redundant
		}
		// Reweight and renormalize.
		var sum float64
		for j, i := range idx {
			if miss[j] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for _, i := range idx {
			w[i] /= sum
		}
	}
	return nil
}

// Predict implements Classifier (alpha-weighted vote).
func (a *AdaBoost) Predict(x []float64) int {
	votes := make([]float64, a.classes)
	for r, t := range a.stumps {
		votes[t.Predict(x)] += a.alphas[r]
	}
	return argmax(votes)
}

// Rounds returns the number of boosting rounds actually used.
func (a *AdaBoost) Rounds() int { return len(a.stumps) }
