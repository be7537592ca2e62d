package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"hpas/internal/cluster"
	"hpas/internal/monitor"
	"hpas/internal/netsim"
	"hpas/internal/trace"
	"hpas/internal/units"
)

// The golden digests were computed by this test's code at the commit
// before the change they guard (the first before the node tick, the
// cluster tick and the monitor started reusing their per-tick buffers;
// the two cross-switch ones before the network resolver dropped its
// per-round map). Those are allocation and layout changes only: they
// must not move one bit of one sample of any node's traces.
const (
	goldenTraceDigest          = "1c780aa70a66c960e96e103dfa604daf81515b1fb98cce2d8bb8db2be8b38aa2"
	goldenCrossSwitchDigest    = "f6280afeec28f05f01ff891dc69cd2d1ce67694647f60ac832e1988310cde0ee"
	goldenDragonflyTraceDigest = "8cf44c5002068b5458ff98c520c11a92384e1c0d5a4c07f01ea2b5ee136adc59"
)

// goldenRun is a fixed-seed run and the digest that pins its traces.
type goldenRun struct {
	name   string
	cfg    RunConfig
	golden string
}

// goldenRuns are the runs the golden digests pin.
func goldenRuns() []goldenRun {
	// One node per switch (Voltrino attaches four), so every halo flow
	// takes the direct link plus Valiant spreading over the ten other
	// switches. Three elastic netoccupy pairs between the same two
	// switches saturate their direct link, which the halo flows cross as
	// a Valiant hop, so the routing weights reach the traces; a rated
	// pair and a filesystem client ride along.
	crossSwitch := RunConfig{
		Cluster:      cluster.Voltrino(16),
		App:          "miniGhost",
		AppNodes:     []int{0, 4, 8, 12},
		FixedSeconds: 30,
		Seed:         13,
		Anomalies: []Spec{
			{Name: "netoccupy", Node: 1, CPU: -1, Peer: 9, Start: 4, End: 25},
			{Name: "netoccupy", Node: 2, CPU: -1, Peer: 10, Start: 6},
			{Name: "netoccupy", Node: 3, CPU: -1, Peer: 11, Start: 8, End: 27},
			{Name: "netoccupy", Node: 5, CPU: -1, Peer: 12, Start: 9, Intensity: 20},
			{Name: "iobandwidth", Node: 4, CPU: -1, Start: 6, End: 28, Count: 2},
		},
	}
	// The same run on a dragonfly of four groups of two switches of two
	// nodes: the app nodes sit in four different groups, so every halo
	// flow is routed over local hops and global links.
	dragonfly := crossSwitch
	dragonfly.Cluster.Net = netsim.Dragonfly(4, 2, 2)

	return []goldenRun{
		// An app on every node plus one anomaly per contention pass the
		// node resolves (CPU share and SMT, cache occupancy, memory
		// bandwidth, memory growth), a network flow source and a
		// filesystem client, so every reused buffer carries values.
		{"one switch", RunConfig{
			Cluster:      cluster.Voltrino(4),
			App:          "CoMD",
			FixedSeconds: 40,
			MemBWCounter: true,
			Seed:         11,
			Anomalies: []Spec{
				{Name: "cpuoccupy", Node: 0, CPU: 0, Start: 5, End: 30, Intensity: 90},
				{Name: "cachecopy", Node: 1, CPU: 1, Start: 8, End: 35},
				{Name: "membw", Node: 2, CPU: 2, Start: 3, End: 25, Count: 4},
				{Name: "memleak", Node: 3, CPU: -1, Start: 10, Size: 512 * units.MiB},
				{Name: "netoccupy", Node: 0, CPU: -1, Peer: 2, Start: 12, End: 33},
				{Name: "iobandwidth", Node: 1, CPU: -1, Start: 15, End: 38, Count: 2},
			},
		}, goldenTraceDigest},
		{"one node per switch", crossSwitch, goldenCrossSwitchDigest},
		{"dragonfly groups", dragonfly, goldenDragonflyTraceDigest},
	}
}

func TestFixedSeedRunMatchesGoldenTraces(t *testing.T) {
	for _, tc := range goldenRuns() {
		t.Run(tc.name, func(t *testing.T) {
			if got := traceDigest(t, tc.cfg); got != tc.golden {
				t.Errorf("trace digest = %s, want %s: the simulation or the monitor changed its output", got, tc.golden)
			}
		})
	}
}

// traceDigest hashes, bit for bit, every sample a tapped run of cfg
// delivers, then the duration and every node's trace set of an
// untapped run of it.
func traceDigest(t *testing.T, cfg RunConfig) string {
	t.Helper()
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	samples := 0
	tapped := cfg
	tapped.Tap = func(s monitor.Sample) {
		samples++
		put(float64(s.Node))
		put(s.Time)
		for _, v := range s.Values {
			put(v)
		}
	}
	if _, err := Run(tapped); err != nil {
		t.Fatal(err)
	}
	if want := cfg.Cluster.Nodes * int(cfg.FixedSeconds); samples != want {
		t.Fatalf("tap saw %d samples, want %d", samples, want)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put(res.Duration)
	for _, set := range res.Metrics {
		set.Each(func(s *trace.Series) {
			h.Write([]byte(s.Name))
			for _, v := range s.Values {
				put(v)
			}
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// A tapped run keeps no trace, so what its tap delivers must be, sample
// by sample and bit for bit, what an untapped run of the same seed
// records; a campaign over either labels the same timeline.
func TestTappedRunDeliversUntappedTraces(t *testing.T) {
	runs := goldenRuns()
	memBW := runs[1]
	memBW.name = "one node per switch with the memory-bandwidth counter"
	memBW.cfg.MemBWCounter = true
	for _, tc := range append(runs, memBW) {
		t.Run(tc.name, func(t *testing.T) {
			camp := Campaign{Base: tc.cfg, Phases: []Phase{
				{Label: "hog", Start: 6, Duration: 9, Specs: []Spec{{Name: "cpuoccupy", Node: 1, CPU: 3, Intensity: 80}}},
				{Label: "leak", Start: 12, Duration: 10, Specs: []Spec{{Name: "memleak", Node: 0, CPU: -1}}},
			}}
			plain, err := camp.Run()
			if err != nil {
				t.Fatal(err)
			}

			delivered := 0
			tapped := camp
			tapped.Base.Tap = func(s monitor.Sample) {
				delivered++
				i := int(math.Round(s.Time/s.Period)) - 1
				for j, name := range s.Names {
					series := plain.Metrics[s.Node].Get(name)
					if series == nil {
						t.Fatalf("tap names %q, which the untapped run does not collect", name)
					}
					if got, want := s.Values[j], series.Values[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("node %d %s at t=%v: tap %v, untapped trace %v", s.Node, name, s.Time, got, want)
					}
				}
				if want := plain.Metrics[s.Node].Len(); len(s.Names) != want {
					t.Fatalf("tap delivers %d metrics, the untapped run collects %d", len(s.Names), want)
				}
			}
			res, err := tapped.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.cfg.Cluster.Nodes * len(plain.Timeline.Labels); delivered != want {
				t.Errorf("tap saw %d samples, the untapped run recorded %d", delivered, want)
			}
			if res.Metrics != nil {
				t.Errorf("a tapped run kept %d trace sets", len(res.Metrics))
			}
			if res.Duration != plain.Duration || res.Finished != plain.Finished {
				t.Errorf("tapped run ended at %v (finished %v), untapped at %v (finished %v)",
					res.Duration, res.Finished, plain.Duration, plain.Finished)
			}
			if !reflect.DeepEqual(res.Timeline, plain.Timeline) {
				t.Errorf("tapped timeline %+v, untapped %+v", res.Timeline, plain.Timeline)
			}
			if res.PhaseSeries(0, monitor.MetricUser, "hog") != nil {
				t.Error("a tapped campaign served a phase series")
			}
		})
	}
}
