package hpas_test

// One benchmark per paper table/figure, as indexed in DESIGN.md. Each
// runs the corresponding experiment in quick mode per iteration; run
// cmd/hpas-bench (without -quick) for the full-size reproductions whose
// outputs are recorded in EXPERIMENTS.md.

import (
	"testing"

	"hpas"
	"hpas/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkTable1Registry(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig2CPUOccupy(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3CacheCopy(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4MemBW(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5MemTimeline(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6NetOccupy(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7IO(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkTable2Characterize(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8Matrix(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9F1(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10Confusion(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Alloc(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig12Policies(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13LoadBalance(b *testing.B)   { benchExperiment(b, "fig13") }

// Ablation / hot-path micro-benchmarks.

// BenchmarkSimulatedSecond measures the cost of one simulated second of
// a loaded 4-node cluster (the tick loop, contention resolution, and
// monitoring together).
func BenchmarkSimulatedSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := hpas.Run(hpas.RunConfig{
			Cluster:      hpas.VoltrinoConfig(4),
			App:          "miniGhost",
			Iterations:   1 << 20,
			FixedSeconds: 1,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetRun measures one labelled diagnosis run end to end
// (simulate, monitor, extract features).
func BenchmarkDatasetRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := hpas.GenerateDataset(hpas.DatasetConfig{
			Apps:    []string{"CoMD"},
			Classes: []string{"cpuoccupy"},
			Reps:    1,
			Window:  15,
			Warmup:  5,
			Seed:    uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetRow measures one row of the shape the repository's
// benchmark generates on its paper-diagnosis workload (a 30 s window of
// which 6 s warm up, 4 nodes × 32 ranks, 300 ticks), cycling over its
// two applications and the six diagnosis classes with fixed seeds, and
// reports allocations: the tick kernel's number under plain
// `go test -bench`, without the benchmark module.
func BenchmarkDatasetRow(b *testing.B) {
	var rows []hpas.DatasetConfig
	for _, app := range []string{"CoMD", "miniGhost"} {
		for _, class := range hpas.DiagnosisClasses() {
			rows = append(rows, hpas.DatasetConfig{
				Apps:    []string{app},
				Classes: []string{class},
				Window:  30,
				Warmup:  6,
				Seed:    uint64(len(rows) + 1),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := hpas.GenerateDataset(rows[i%len(rows)])
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.X) != 1 {
			b.Fatalf("got %d rows, want 1", len(ds.X))
		}
	}
}

func BenchmarkMotivationVariability(b *testing.B) { benchExperiment(b, "variability") }
func BenchmarkAblationRouting(b *testing.B)       { benchExperiment(b, "ablation-routing") }
func BenchmarkAblationRebalance(b *testing.B)     { benchExperiment(b, "ablation-rebalance") }
func BenchmarkAblationMemBWCounter(b *testing.B)  { benchExperiment(b, "ablation-membw-counter") }

func BenchmarkExtensionDragonfly(b *testing.B) { benchExperiment(b, "extension-dragonfly") }
