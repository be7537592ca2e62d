package ml

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hpas/internal/xrand"
)

// tiedDataset draws n samples of four overlapping classes whose
// features are rounded to halves, so most split candidates sit between
// runs of equal values and the row-index tie-break decides the order.
func tiedDataset(seed uint64, n int) *Dataset {
	const nFeatures = 24
	rng := xrand.New(seed)
	ds := &Dataset{Classes: []string{"a", "b", "c", "d"}}
	for i := 0; i < n; i++ {
		y := i % len(ds.Classes)
		x := make([]float64, nFeatures)
		for k := range x {
			mean := 0.0
			if k%len(ds.Classes) == y {
				mean = 1.2
			}
			x[k] = math.Round(2*rng.Norm(mean, 1.5)) / 2
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// The golden strings were printed by this test's code at the commit
// before Tree.bestSplit changed its sort and started reusing scratch:
// the held-out predictions of a model fitted on the whole training
// set, then the 3-fold cross-validation confusion matrix. The options
// are the paper-diagnosis benchmark workload's. One different split
// anywhere in the 50 trees or 40 stumps moves a prediction.
func TestModelsMatchGoldenPredictions(t *testing.T) {
	train, held := tiedDataset(21, 180), tiedDataset(22, 60)
	for _, tc := range []struct {
		name   string
		mk     func() Classifier
		golden string
	}{
		{"tree", func() Classifier { return NewTree(TreeOptions{MaxDepth: 12}) },
			"223231232302002320322123222300030310011301230012200031120201 [[17 8 10 10] [10 19 5 11] [10 8 14 13] [6 9 14 16]]"},
		{"adaboost", func() Classifier { return NewAdaBoost(AdaBoostOptions{Rounds: 40, MaxDepth: 3, Seed: 7}) },
			"001011233323002301230123012120230113212301230103003101130202 [[26 8 7 4] [6 28 3 8] [5 6 30 4] [4 6 7 28]]"},
		{"forest", func() Classifier { return NewForest(ForestOptions{Trees: 50, MaxDepth: 14, Seed: 7}) },
			"012001120123002101230123002310020013211301231100013111130101 [[32 7 5 1] [4 22 6 13] [4 4 33 4] [4 4 6 31]]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clf := tc.mk()
			if err := clf.Fit(train, nil); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, x := range held.X {
				fmt.Fprint(&got, clf.Predict(x))
			}
			cv, err := CrossValidate(tc.mk, train, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprint(&got, " ", cv.Confusion.Counts)
			if got.String() != tc.golden {
				t.Errorf("predictions and confusion =\n%s, want\n%s", got.String(), tc.golden)
			}
		})
	}
}
