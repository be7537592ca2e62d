package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	cfg := Voltrino()
	if cfg.Nodes() != 48 {
		t.Fatalf("Nodes = %d", cfg.Nodes())
	}
	if cfg.SwitchOf(0) != 0 || cfg.SwitchOf(3) != 0 || cfg.SwitchOf(4) != 1 || cfg.SwitchOf(47) != 11 {
		t.Error("SwitchOf wrong")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Switches: 0, NodesPerSwitch: 4})
}

func TestSameSwitchFlowNICBound(t *testing.T) {
	nw := New(Voltrino())
	f := &Flow{Src: 0, Dst: 1, Demand: math.Inf(1)}
	nw.Resolve([]*Flow{f})
	if math.Abs(f.Granted-nw.Config().NICBW) > 1e3 {
		t.Errorf("Granted = %v, want NIC bw %v", f.Granted, nw.Config().NICBW)
	}
}

func TestDemandCap(t *testing.T) {
	nw := New(Voltrino())
	f := &Flow{Src: 0, Dst: 1, Demand: 1e9}
	nw.Resolve([]*Flow{f})
	if math.Abs(f.Granted-1e9) > 1e3 {
		t.Errorf("Granted = %v, want demand 1e9", f.Granted)
	}
}

func TestInvalidFlowsGetZero(t *testing.T) {
	nw := New(Voltrino())
	flows := []*Flow{
		{Src: 0, Dst: 0, Demand: 1e9},   // self
		{Src: -1, Dst: 1, Demand: 1e9},  // bad src
		{Src: 0, Dst: 999, Demand: 1e9}, // bad dst
		{Src: 0, Dst: 1, Demand: 0},     // no demand
	}
	nw.Resolve(flows)
	for i, f := range flows {
		if f.Granted != 0 {
			t.Errorf("flow %d granted %v, want 0", i, f.Granted)
		}
	}
}

func TestCrossSwitchElasticFlow(t *testing.T) {
	nw := New(Voltrino())
	f := &Flow{Src: 0, Dst: 4, Demand: math.Inf(1)} // switch 0 -> switch 1
	nw.Resolve([]*Flow{f})
	// Adaptive routing gives min(NIC, direct/bias) = min(10, 25) GB/s.
	if math.Abs(f.Granted-10e9) > 1e6 {
		t.Errorf("Granted = %v, want 10e9", f.Granted)
	}
}

func TestNonAdaptiveDirectOnly(t *testing.T) {
	cfg := Voltrino()
	cfg.Adaptive = false
	nw := New(cfg)
	f := &Flow{Src: 0, Dst: 4, Demand: math.Inf(1)}
	nw.Resolve([]*Flow{f})
	// All traffic on the 5 GB/s direct link.
	if math.Abs(f.Granted-5e9) > 1e6 {
		t.Errorf("Granted = %v, want 5e9", f.Granted)
	}
}

func TestEqualFlowsFairShare(t *testing.T) {
	nw := New(Voltrino())
	// Two same-switch flows sharing one destination NIC.
	a := &Flow{Src: 0, Dst: 2, Demand: math.Inf(1)}
	b := &Flow{Src: 1, Dst: 2, Demand: math.Inf(1)}
	nw.Resolve([]*Flow{a, b})
	if math.Abs(a.Granted-b.Granted) > 1e3 {
		t.Errorf("unequal shares: %v vs %v", a.Granted, b.Granted)
	}
	if math.Abs(a.Granted+b.Granted-nw.Config().NICBW) > 1e3 {
		t.Errorf("NIC not fully used: %v", a.Granted+b.Granted)
	}
}

func TestFig6ShapeMonotoneReduction(t *testing.T) {
	// An OSU-like flow across switches, plus k elastic anomaly pairs on
	// the same switch pair: OSU bandwidth must fall monotonically with k
	// but stay well above the non-adaptive direct-link share.
	osuDemand := 9.5e9
	prev := math.Inf(1)
	var got []float64
	for k := 0; k <= 3; k++ {
		nw := New(Voltrino())
		flows := []*Flow{{Src: 0, Dst: 4, Demand: osuDemand}}
		for i := 0; i < k; i++ {
			flows = append(flows, &Flow{Src: 1 + i, Dst: 5 + i, Demand: math.Inf(1)})
		}
		nw.Resolve(flows)
		g := flows[0].Granted
		got = append(got, g)
		if g > prev+1e3 {
			t.Errorf("k=%d: OSU bandwidth rose: %v > %v", k, g, prev)
		}
		prev = g
	}
	if got[0] < osuDemand-1e6 {
		t.Errorf("clean OSU run should reach demand, got %v", got[0])
	}
	if got[3] >= got[0] {
		t.Error("3 anomaly pairs should reduce OSU bandwidth")
	}
	// Adaptive routing limits the damage: better than the direct-only share.
	if got[3] < 2e9 {
		t.Errorf("reduction too severe for adaptive routing: %v", got[3])
	}
}

func TestStarTopology(t *testing.T) {
	nw := New(Star(6))
	f := &Flow{Src: 0, Dst: 5, Demand: math.Inf(1)}
	nw.Resolve([]*Flow{f})
	if math.Abs(f.Granted-nw.Config().NICBW) > 1e3 {
		t.Errorf("star flow = %v", f.Granted)
	}
}

func TestCounters(t *testing.T) {
	nw := New(Voltrino())
	a := &Flow{Src: 0, Dst: 4, Demand: 2e9}
	b := &Flow{Src: 0, Dst: 5, Demand: 1e9}
	nw.Resolve([]*Flow{a, b})
	if math.Abs(nw.InjectedRate(0)-3e9) > 1e4 {
		t.Errorf("InjectedRate(0) = %v", nw.InjectedRate(0))
	}
	if math.Abs(nw.EjectedRate(4)-2e9) > 1e4 {
		t.Errorf("EjectedRate(4) = %v", nw.EjectedRate(4))
	}
	if nw.InjectedRate(7) != 0 {
		t.Error("idle node should inject 0")
	}
	// Counters reset between Resolve calls.
	nw.Resolve(nil)
	if nw.InjectedRate(0) != 0 {
		t.Error("counters not reset")
	}
}

// Property: no link is ever oversubscribed, and grants never exceed demand.
func TestNoOversubscriptionProperty(t *testing.T) {
	f := func(pairs []struct{ S, D uint8 }, demRaw []uint8) bool {
		cfg := Voltrino()
		nw := New(cfg)
		var flows []*Flow
		for i, p := range pairs {
			if i >= 12 {
				break
			}
			d := math.Inf(1)
			if i < len(demRaw) && demRaw[i]%2 == 0 {
				d = float64(demRaw[i]) * 1e8
			}
			flows = append(flows, &Flow{
				Src:    int(p.S) % cfg.Nodes(),
				Dst:    int(p.D) % cfg.Nodes(),
				Demand: d,
			})
		}
		nw.Resolve(flows)
		// Recompute link loads from grants.
		load := make(map[int]float64)
		for _, fl := range flows {
			if fl.Granted < 0 || fl.Granted > fl.Demand+1 {
				return false
			}
			if fl.Granted == 0 {
				continue
			}
			for _, u := range nw.route(fl, nil) {
				load[u.link] += u.weight * fl.Granted
			}
		}
		for link, l := range load {
			if l > nw.capacity[link]*(1+1e-6)+10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkResolve16Flows(b *testing.B) {
	nw := New(Voltrino())
	var flows []*Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, &Flow{Src: i % 48, Dst: (i + 7) % 48, Demand: math.Inf(1)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Resolve(flows)
	}
}
