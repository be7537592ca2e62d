package ml

import (
	"fmt"
	"math"
	"slices"

	"hpas/internal/xrand"
)

// TreeOptions configure a CART decision tree.
type TreeOptions struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples per leaf (default 1).
	MinLeaf int
	// MTry is the number of features considered per split; 0 means all
	// (set to sqrt(d) by the random forest).
	MTry int
	// Seed drives feature subsampling when MTry > 0.
	Seed uint64
}

// Tree is a CART decision tree classifier using weighted Gini impurity.
type Tree struct {
	opts       TreeOptions
	root       *treeNode
	classes    int
	importance []float64 // per-feature total impurity decrease

	// bestSplit's scratch, held for the duration of a fit: a node's split
	// search ends before its children's begin, so the whole tree shares
	// one set.
	feats      []int // 0..nf-1, the features considered when MTry is off
	pairs      []valueRow
	leftCounts []float64
}

// valueRow is one sample's value of the feature being scanned.
type valueRow struct {
	v float64
	i int // row index
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	leaf      bool
	class     int
}

// NewTree returns an untrained tree.
func NewTree(opts TreeOptions) *Tree {
	if opts.MinLeaf <= 0 {
		opts.MinLeaf = 1
	}
	return &Tree{opts: opts}
}

// Fit implements Classifier.
func (t *Tree) Fit(ds *Dataset, idx []int) error {
	w := make([]float64, ds.NumSamples())
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(ds, idx, w)
}

// FitWeighted trains with per-sample weights (used by AdaBoost). The
// weights slice is indexed by absolute sample index.
func (t *Tree) FitWeighted(ds *Dataset, idx []int, weights []float64) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("ml: empty dataset")
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
	t.classes = ds.NumClasses()
	t.importance = make([]float64, ds.NumFeatures())
	t.feats = make([]int, ds.NumFeatures())
	for i := range t.feats {
		t.feats[i] = i
	}
	t.pairs = make([]valueRow, len(idx))
	t.leftCounts = make([]float64, t.classes)
	rng := xrand.New(t.opts.Seed + 0x5eed)
	t.root = t.build(ds, idx, weights, 0, rng)
	t.feats, t.pairs, t.leftCounts = nil, nil, nil // a fitted tree keeps no scratch
	return nil
}

// FeatureImportance returns the per-feature mean decrease in impurity,
// normalized to sum to 1 (all zeros for a single-leaf tree).
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	var sum float64
	for _, v := range t.importance {
		sum += v
	}
	if sum <= 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / sum
	}
	return out
}

// build recursively grows the tree.
func (t *Tree) build(ds *Dataset, idx []int, w []float64, depth int, rng *xrand.RNG) *treeNode {
	counts := make([]float64, t.classes)
	var total float64
	for _, i := range idx {
		counts[ds.Y[i]] += w[i]
		total += w[i]
	}
	majority := argmax(counts)
	if gini(counts, total) == 0 ||
		(t.opts.MaxDepth > 0 && depth >= t.opts.MaxDepth) ||
		len(idx) <= t.opts.MinLeaf {
		return &treeNode{leaf: true, class: majority}
	}

	feat, thr, gain, ok := t.bestSplit(ds, idx, w, counts, total, rng)
	if !ok {
		return &treeNode{leaf: true, class: majority}
	}
	t.importance[feat] += gain * total
	var left, right []int
	for _, i := range idx {
		if ds.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, class: majority}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.build(ds, left, w, depth+1, rng),
		right:     t.build(ds, right, w, depth+1, rng),
	}
}

// bestSplit finds the weighted-Gini-optimal (feature, threshold) over the
// considered features.
func (t *Tree) bestSplit(ds *Dataset, idx []int, w []float64, counts []float64, total float64, rng *xrand.RNG) (feat int, thr, gain float64, ok bool) {
	feats := t.feats
	if nf := len(feats); t.opts.MTry > 0 && t.opts.MTry < nf {
		feats = rng.Perm(nf)[:t.opts.MTry]
		slices.Sort(feats) // deterministic evaluation order
	}

	parent := gini(counts, total)
	bestGain := 1e-12
	bestFeat, bestThr := -1, 0.0

	pairs, leftCounts := t.pairs[:len(idx)], t.leftCounts

	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = valueRow{ds.X[i][f], i}
		}
		// Value, then row index: a total order (a bootstrap's repeated
		// rows are identical pairs), so the sorted permutation does not
		// depend on the sorting algorithm.
		slices.SortFunc(pairs, func(a, b valueRow) int {
			if a.v != b.v {
				if a.v < b.v {
					return -1
				}
				return 1
			}
			return a.i - b.i
		})
		clear(leftCounts)
		var leftTotal float64
		for k := 0; k < len(pairs)-1; k++ {
			i := pairs[k].i
			leftCounts[ds.Y[i]] += w[i]
			leftTotal += w[i]
			if pairs[k].v == pairs[k+1].v {
				continue // can't split between equal values
			}
			rightTotal := total - leftTotal
			if k+1 < t.opts.MinLeaf || len(pairs)-k-1 < t.opts.MinLeaf {
				continue
			}
			if leftTotal <= 0 || rightTotal <= 0 {
				continue
			}
			gl := giniPartial(leftCounts, leftTotal)
			gr := giniRemainder(counts, leftCounts, rightTotal)
			gain := parent - (leftTotal*gl+rightTotal*gr)/total
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return bestFeat, bestThr, bestGain, bestFeat >= 0
}

// gini returns the Gini impurity of the weighted class counts.
func gini(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / total
		s -= p * p
	}
	return s
}

func giniPartial(counts []float64, total float64) float64 { return gini(counts, total) }

// giniRemainder computes gini of (all - left) without allocating.
func giniRemainder(all, left []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 1.0
	for c := range all {
		p := (all[c] - left[c]) / total
		s -= p * p
	}
	return s
}

func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Depth returns the trained tree's depth (0 for a single leaf).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
