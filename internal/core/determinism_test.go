package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hpas/internal/cluster"
	"hpas/internal/monitor"
	"hpas/internal/trace"
	"hpas/internal/units"
)

// goldenTraceDigest was computed by this test's code at the commit
// before the node tick, the cluster tick and the monitor started
// reusing their per-tick buffers. The reuse is an allocation change
// only: it must not move one bit of one sample of any node's traces.
const goldenTraceDigest = "1c780aa70a66c960e96e103dfa604daf81515b1fb98cce2d8bb8db2be8b38aa2"

func TestFixedSeedRunMatchesGoldenTraces(t *testing.T) {
	// An app on every node plus one anomaly per contention pass the
	// node resolves (CPU share and SMT, cache occupancy, memory
	// bandwidth, memory growth), a network flow source and a
	// filesystem client, so every reused buffer carries values.
	cfg := RunConfig{
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
	}
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	samples := 0
	cfg.Tap = func(s monitor.Sample) {
		samples++
		put(float64(s.Node))
		put(s.Time)
		for _, v := range s.Values {
			put(v)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if samples != 4*40 {
		t.Fatalf("tap saw %d samples, want %d", samples, 4*40)
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
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceDigest {
		t.Errorf("trace digest = %s, want %s: the simulation or the monitor changed its output", got, goldenTraceDigest)
	}
}
