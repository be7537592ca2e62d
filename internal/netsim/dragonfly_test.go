package netsim

import (
	"math"
	"testing"
)

func dfly() *Network { return New(Dragonfly(4, 4, 4)) } // 16 switches, 64 nodes

func TestDragonflyGeometry(t *testing.T) {
	cfg := Dragonfly(4, 4, 4)
	if cfg.Nodes() != 64 || cfg.Switches != 16 {
		t.Fatalf("geometry: %d nodes, %d switches", cfg.Nodes(), cfg.Switches)
	}
	if cfg.groupOf(0) != 0 || cfg.groupOf(3) != 0 || cfg.groupOf(4) != 1 || cfg.groupOf(15) != 3 {
		t.Error("groupOf wrong")
	}
	if cfg.groupSize() != 4 {
		t.Error("groupSize wrong")
	}
}

func TestDragonflyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for indivisible groups")
		}
	}()
	New(Config{Switches: 10, NodesPerSwitch: 2, Groups: 3, NICBW: 1e9, LinkBW: 1e9})
}

func TestDragonflyLocalityHierarchy(t *testing.T) {
	// Bandwidth should degrade with distance: same switch >= same group
	// >= cross group (the global link is the narrowest resource).
	measure := func(src, dst int) float64 {
		nw := dfly()
		f := &Flow{Src: src, Dst: dst, Demand: math.Inf(1)}
		nw.Resolve([]*Flow{f})
		return f.Granted
	}
	sameSwitch := measure(0, 1)  // switch 0
	sameGroup := measure(0, 4)   // switches 0,1 in group 0
	crossGroup := measure(0, 16) // group 0 -> group 1
	if sameSwitch < sameGroup || sameGroup < crossGroup {
		t.Errorf("locality hierarchy broken: %v, %v, %v", sameSwitch, sameGroup, crossGroup)
	}
	if crossGroup <= 0 {
		t.Error("cross-group flow starved")
	}
}

func TestDragonflyGlobalLinkContention(t *testing.T) {
	// Many flows between the same two groups share the single direct
	// global link; Valiant spreading over the other groups bounds the
	// collapse, exactly like the intra-chassis adaptive routing.
	nw := dfly()
	var flows []*Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, &Flow{Src: i * 4, Dst: 16 + i*4, Demand: math.Inf(1)})
	}
	nw.Resolve(flows)
	var total float64
	for _, f := range flows {
		if f.Granted <= 0 {
			t.Fatal("flow starved")
		}
		total += f.Granted
	}
	// Direct global link alone is 4.7 GB/s; with Valiant over 2
	// intermediate groups the aggregate must exceed it.
	if total <= 4.7e9 {
		t.Errorf("Valiant routing unused: aggregate %v", total)
	}
	// But the two-level topology must still be the bottleneck vs NICs.
	if total >= 4*10e9 {
		t.Error("global level should constrain aggregate bandwidth")
	}
}

func TestDragonflyNonAdaptiveCollapses(t *testing.T) {
	cfg := Dragonfly(4, 4, 4)
	cfg.Adaptive = false
	nw := New(cfg)
	a := &Flow{Src: 0, Dst: 16, Demand: math.Inf(1)}
	b := &Flow{Src: 4, Dst: 20, Demand: math.Inf(1)}
	nw.Resolve([]*Flow{a, b})
	// Both flows cross group 0 -> group 1 on the single global link.
	if sum := a.Granted + b.Granted; sum > 4.7e9*1.01 {
		t.Errorf("minimal-only routing oversubscribed the global link: %v", sum)
	}
}

func TestDragonflyIntraGroupUnaffectedByGlobalTraffic(t *testing.T) {
	nw := dfly()
	local := &Flow{Src: 0, Dst: 12, Demand: math.Inf(1)}  // group 0 internal
	remote := &Flow{Src: 1, Dst: 17, Demand: math.Inf(1)} // group 0 -> 1
	nw.Resolve([]*Flow{local, remote})
	aloneNW := dfly()
	alone := &Flow{Src: 0, Dst: 12, Demand: math.Inf(1)}
	aloneNW.Resolve([]*Flow{alone})
	if local.Granted < alone.Granted*0.5 {
		t.Errorf("global traffic crushed local flow: %v vs %v", local.Granted, alone.Granted)
	}
}

func TestDragonflyNoOversubscription(t *testing.T) {
	nw := dfly()
	var flows []*Flow
	for i := 0; i < 24; i++ {
		flows = append(flows, &Flow{Src: (i * 3) % 64, Dst: (i*7 + 16) % 64, Demand: math.Inf(1)})
	}
	nw.Resolve(flows)
	load := make(map[int]float64)
	for _, f := range flows {
		if f.Granted == 0 || f.Src == f.Dst {
			continue
		}
		for _, u := range nw.route(f, nil) {
			load[u.link] += u.weight * f.Granted
		}
	}
	for link, l := range load {
		if l > nw.capacity[link]*(1+1e-6)+10 {
			t.Errorf("link %d oversubscribed: %v > %v", link, l, nw.capacity[link])
		}
	}
}
