package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hpas"
	"hpas/internal/core"
	"hpas/internal/features"
	"hpas/internal/xrand"
)

// paperDiagnosis is the researcher's batch path with no serving code:
// generate labelled rows, cross-validate the paper's three classifiers
// on them, fit the forest. internal/sim, monitor, trace, features and
// ml do all of the work; stream, journal, serve and shard do none, so a
// change to the serving layers must leave every number here alone.
var paperDiagnosis = &workload{
	name:        "paper-diagnosis",
	why:         "batch path: simulator, monitor, feature extraction and ml only; starves stream, journal, serve and shard",
	unit:        "rows",
	cycles:      76,
	climbs:      24,
	heapLimitMB: 256,
	setup:       func(cfg runConfig) (instance, error) { return setupPaper(cfg) },
	layers:      paperLayers,
}

// Row generation mirrors the paper's protocol at a size that keeps one
// row a short slice: two applications, the six diagnosis classes, a
// 30 s observation of which the first 6 s warm up. The cycle generates
// one row per (app, class) pair from the run's seed. The classifier
// steps train on a 24-row dataset (two repetitions per pair) generated
// in set-up from paperTrainSeed, not from the run's seed: AdaBoost
// stops early on separable data, so its cost swings threefold with the
// rows it sees (49 k to 173 k allocations over seeds 1–5), and a
// benchmark whose work depends on its seed cannot compare two runs.
const (
	paperWindow    = 30
	paperWarmup    = 6
	paperTrainReps = 2
	paperFolds     = 3
	paperTrainSeed = 1
)

var paperApps = []string{"CoMD", "miniGhost"}

// paperInputs draws row configurations from the seed: reps single-row
// dataset requests per (app, class), each with its own run seed, so
// anomaly intensities, input sizes and monitor noise differ per seed
// while the amount of work does not.
func paperInputs(seed uint64, reps int) []hpas.DatasetConfig {
	rng := xrand.New(seed ^ 0x9a9e7d1a6)
	var cfgs []hpas.DatasetConfig
	for _, app := range paperApps {
		for _, class := range hpas.DiagnosisClasses() {
			for rep := 0; rep < reps; rep++ {
				cfgs = append(cfgs, hpas.DatasetConfig{
					Apps:    []string{app},
					Classes: []string{class},
					Reps:    1,
					Window:  paperWindow,
					Warmup:  paperWarmup,
					Seed:    rng.Uint64() >> 16,
				})
			}
		}
	}
	return cfgs
}

type paperInstance struct {
	rows   []hpas.DatasetConfig
	ds     *hpas.Dataset // the classifier steps' training rows
	cycle  []step
	digest []uint64
}

func setupPaper(cfg runConfig) (*paperInstance, error) {
	p := &paperInstance{rows: paperInputs(cfg.seed, 1)}

	classes := hpas.DiagnosisClasses()
	classIdx := make(map[string]int, len(classes))
	for i, c := range classes {
		classIdx[c] = i
	}
	p.ds = &hpas.Dataset{Classes: classes}
	for _, rc := range paperInputs(paperTrainSeed, paperTrainReps) {
		row, err := hpas.GenerateDataset(rc)
		if err != nil {
			return nil, fmt.Errorf("training row %s/%s: %w", rc.Apps[0], rc.Classes[0], err)
		}
		p.ds.FeatureNames = row.FeatureNames
		p.ds.X = append(p.ds.X, row.X[0])
		p.ds.Y = append(p.ds.Y, classIdx[rc.Classes[0]])
	}

	for i, rc := range p.rows {
		rc := rc
		p.cycle = append(p.cycle, step{
			name: fmt.Sprintf("row-%02d-%s-%s", i, rc.Apps[0], rc.Classes[0]),
			work: 1,
			run: func(tr *tracer, parent int) (stepResult, error) {
				t0 := time.Now()
				row, err := hpas.GenerateDataset(rc)
				if err != nil {
					return stepResult{}, err
				}
				if len(row.X) != 1 {
					return stepResult{}, fmt.Errorf("got %d rows, want 1", len(row.X))
				}
				return stepResult{first: time.Since(t0), digest: digestFloats(row.X[0])}, nil
			},
		})
	}
	for _, c := range []struct {
		name string
		mk   func() hpas.Classifier
	}{
		{"cv-tree", func() hpas.Classifier { return hpas.NewTree(hpas.TreeOptions{MaxDepth: 12}) }},
		{"cv-adaboost", func() hpas.Classifier {
			return hpas.NewAdaBoost(hpas.AdaBoostOptions{Rounds: 40, MaxDepth: 3, Seed: 7})
		}},
		{"cv-forest", newPaperForest},
	} {
		c := c
		p.cycle = append(p.cycle, step{name: c.name, run: func(tr *tracer, parent int) (stepResult, error) {
			conf, err := hpas.CrossValidate(c.mk, p.ds, paperFolds, paperTrainSeed)
			if err != nil {
				return stepResult{}, err
			}
			if conf.Total() != len(p.ds.X) {
				return stepResult{}, fmt.Errorf("confusion matrix holds %d predictions, want %d", conf.Total(), len(p.ds.X))
			}
			return stepResult{digest: digestInts(conf.Counts)}, nil
		}})
	}
	p.cycle = append(p.cycle, step{name: "fit-forest", run: func(tr *tracer, parent int) (stepResult, error) {
		f := newPaperForest()
		if err := f.Fit(p.ds, nil); err != nil {
			return stepResult{}, err
		}
		preds := make([]int, len(p.ds.X))
		for i, x := range p.ds.X {
			preds[i] = f.Predict(x)
		}
		return stepResult{digest: digestInts([][]int{preds})}, nil
	}})

	var err error
	if p.digest, err = warmUp(p.cycle); err != nil {
		return nil, err
	}
	return p, nil
}

func newPaperForest() hpas.Classifier {
	return hpas.NewForest(hpas.ForestOptions{Trees: 50, MaxDepth: 14, Seed: 7})
}

func (p *paperInstance) steps() []step  { return p.cycle }
func (p *paperInstance) want() []uint64 { return p.digest }
func (p *paperInstance) close() error   { return nil }

// finish has nothing left to check: every repeat of every step was
// already compared with the warm-up cycle's output.
func (p *paperInstance) finish(int) []string { return nil }

func digestFloats(xs []float64) uint64 {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return digestOf(buf)
}

func digestInts(rows [][]int) uint64 {
	var buf []byte
	for _, row := range rows {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		buf = append(buf, 0xff)
	}
	return digestOf(buf)
}

// rowRunConfig rebuilds the one simulated run GenerateDataset makes for
// a single-row request, so the ladder can enter below it. The draws
// mirror core.GenerateDatasetContext; paperLayers checks the mirror
// still holds before trusting it.
func rowRunConfig(rc hpas.DatasetConfig) (hpas.RunConfig, error) {
	rng := xrand.New(rc.Seed + 0xda7a)
	specs, err := core.DrawSpecs(rc.Classes[0], rng)
	if err != nil {
		return hpas.RunConfig{}, err
	}
	return hpas.RunConfig{
		Cluster:      hpas.VoltrinoConfig(4),
		App:          rc.Apps[0],
		Iterations:   1 << 20,
		AppScale:     rng.Uniform(0.85, 1.2),
		Anomalies:    specs,
		FixedSeconds: rc.Window,
		Noise:        rc.Noise,
		Seed:         rc.Seed + 1,
	}, nil
}

// paperLadderRows is how many of the cycle's row steps the ladder
// climbs, evenly spaced; each stands for its share of the rest. Rows
// differ by up to a fifth in cost, so every other one is climbed.
const paperLadderRows = 6

// paperLayers climbs the batch path: the simulated run alone under the
// row that wraps it (the difference is trace slicing and feature
// extraction), and the classifier steps, which are ml and nothing else.
func paperLayers(in layerInput) (*layerTable, error) {
	p := in.inst.(*paperInstance)
	t := newLayerTable()
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()

	var (
		groups   []ladderGroup
		captured *hpas.RunResult
		stride   = len(p.rows) / paperLadderRows
	)
	for i := 0; i < len(p.rows); i += stride {
		rc := p.rows[i]
		runCfg, err := rowRunConfig(rc)
		if err != nil {
			return nil, err
		}
		res, err := hpas.RunContext(ctx, runCfg)
		if err != nil {
			return nil, err
		}
		row, err := hpas.GenerateDataset(rc)
		if err != nil {
			return nil, err
		}
		if digestFloats(features.ExtractWindow(res.Metrics[0], rc.Warmup, rc.Window).Values) != digestFloats(row.X[0]) {
			return nil, fmt.Errorf("ladder: the sim rung of %s no longer reproduces GenerateDataset's run", p.cycle[i].name)
		}
		captured = res
		groups = append(groups, ladderGroup{name: p.cycle[i].name, scale: float64(stride), rungs: []rung{
			{name: "sim", layer: "sim", run: func() error { _, err := hpas.RunContext(ctx, runCfg); return err }},
			{name: "row", layer: "features", run: func() error { _, err := hpas.GenerateDataset(rc); return err }},
		}})
	}
	for _, st := range p.cycle[len(p.rows):] {
		st := st
		groups = append(groups, ladderGroup{name: st.name, scale: 1, rungs: []rung{
			{name: st.name, layer: "ml", run: func() error { _, err := st.run(nil, -1); return err }},
		}})
	}
	if err := t.climb(groups, in.repeats, in.tr, in.cycles); err != nil {
		return nil, err
	}
	t.finishLadder()

	simSeconds := float64(len(p.rows)) * paperWindow
	t.set("sim.simsec_per_s", simSeconds/(t.Self["sim"]/1e3))
	samples := 0
	for _, set := range captured.Metrics {
		samples += set.Get(set.Names()[0]).Len()
	}
	t.set("monitor.samples", float64(samples*len(p.rows)))
	t.set("features.extract_us", quietMicros(100, func() { features.Extract(captured.Metrics[0]) }))
	t.set("ml.cv_ms", t.rungMS("cv-tree")+t.rungMS("cv-adaboost")+t.rungMS("cv-forest"))
	t.set("ml.fit_forest_ms", t.rungMS("fit-forest"))
	return t, nil
}
