package netsim

import (
	"math"
	"slices"
	"testing"

	"hpas/internal/xrand"
)

// referenceResolve is the progressive filling Resolve ran before it kept
// its scratch on the Network: a fresh state slice per call and a fresh
// map of link weights per round. It is the reference Resolve must match
// bit for bit; it touches none of nw's scratch and returns the per-node
// injected and ejected rates.
func referenceResolve(nw *Network, flows []*Flow) (injected, ejected []float64) {
	rem := append([]float64(nil), nw.capacity...)
	injected = make([]float64, nw.nInj)
	ejected = make([]float64, nw.nInj)

	type state struct {
		flow   *Flow
		uses   []use
		rate   float64
		active bool
	}
	var states []state
	for _, f := range flows {
		f.Granted = 0
		if f.Demand <= 0 {
			continue
		}
		if f.Src == f.Dst || f.Src < 0 || f.Dst < 0 || f.Src >= nw.nInj || f.Dst >= nw.nInj {
			continue
		}
		states = append(states, state{flow: f, uses: nw.route(f, nil), active: true})
	}

	const eps = 1e-6
	for {
		nActive := 0
		linkWeight := make(map[int]float64)
		for i := range states {
			if !states[i].active {
				continue
			}
			nActive++
			for _, u := range states[i].uses {
				linkWeight[u.link] += u.weight
			}
		}
		if nActive == 0 {
			break
		}
		delta := math.Inf(1)
		for link, w := range linkWeight {
			if w > 0 {
				if d := rem[link] / w; d < delta {
					delta = d
				}
			}
		}
		for i := range states {
			if states[i].active {
				if d := states[i].flow.Demand - states[i].rate; d < delta {
					delta = d
				}
			}
		}
		if delta < 0 {
			delta = 0
		}
		for i := range states {
			if !states[i].active {
				continue
			}
			states[i].rate += delta
			for _, u := range states[i].uses {
				rem[u.link] -= delta * u.weight
			}
		}
		progressed := false
		for i := range states {
			if !states[i].active {
				continue
			}
			if states[i].rate >= states[i].flow.Demand-eps {
				states[i].active = false
				progressed = true
				continue
			}
			for _, u := range states[i].uses {
				if u.weight > 0 && rem[u.link] <= eps {
					states[i].active = false
					progressed = true
					break
				}
			}
		}
		if !progressed && delta <= eps {
			for i := range states {
				states[i].active = false
			}
		}
	}

	for i := range states {
		f := states[i].flow
		f.Granted = states[i].rate
		injected[f.Src] += f.Granted
		ejected[f.Dst] += f.Granted
	}
	return injected, ejected
}

// randomFlows draws 0–200 flows over cfg's nodes: elastic, capped, zero
// and negative demands, self-flows and endpoints outside the fabric.
func randomFlows(rng *xrand.RNG, cfg Config) []*Flow {
	n := cfg.Nodes()
	flows := make([]*Flow, rng.Intn(201))
	for i := range flows {
		f := &Flow{Src: rng.Intn(n), Dst: rng.Intn(n)}
		switch rng.Intn(10) {
		case 0:
			f.Demand = 0
		case 1:
			f.Demand = -rng.Uniform(1, 1e9)
		case 2:
			f.Dst = f.Src
			f.Demand = 1e9
		case 3:
			f.Src = rng.Intn(n+4) - 2
			f.Dst = rng.Intn(n+4) - 2
			f.Demand = 1e9
		case 4, 5, 6:
			f.Demand = math.Inf(1)
		default:
			f.Demand = rng.Uniform(1e6, 2e10)
		}
		flows[i] = f
	}
	return flows
}

func cloneFlows(flows []*Flow) []*Flow {
	out := make([]*Flow, len(flows))
	for i, f := range flows {
		c := *f
		out[i] = &c
	}
	return out
}

// outcome is everything a resolution reports, as bit patterns.
func outcome(flows []*Flow, injected, ejected []float64) []uint64 {
	bits := make([]uint64, 0, len(flows)+2*len(injected))
	for _, f := range flows {
		bits = append(bits, math.Float64bits(f.Granted))
	}
	for i := range injected {
		bits = append(bits, math.Float64bits(injected[i]), math.Float64bits(ejected[i]))
	}
	return bits
}

// resolved is the outcome of nw.Resolve(flows), read through the
// counter accessors.
func resolved(nw *Network, flows []*Flow) []uint64 {
	nw.Resolve(flows)
	injected, ejected := make([]float64, nw.nInj), make([]float64, nw.nInj)
	for i := range injected {
		injected[i], ejected[i] = nw.InjectedRate(i), nw.EjectedRate(i)
	}
	return outcome(flows, injected, ejected)
}

func referenceTopologies() map[string]Config {
	nonAdaptive := Voltrino()
	nonAdaptive.Adaptive = false
	return map[string]Config{
		"flat":         Voltrino(),
		"non-adaptive": nonAdaptive,
		"star":         Star(8),
		"dragonfly":    Dragonfly(4, 3, 2),
		"two-groups":   Dragonfly(2, 2, 4),
	}
}

func TestResolveBitIdenticalToMapReference(t *testing.T) {
	for name, cfg := range referenceTopologies() {
		t.Run(name, func(t *testing.T) {
			nw := New(cfg) // one network for every set: its scratch is dirty from the last
			for seed := uint64(1); seed <= 40; seed++ {
				flows := randomFlows(xrand.New(seed), cfg)
				ref := cloneFlows(flows)
				inj, ej := referenceResolve(New(cfg), ref)
				want := outcome(ref, inj, ej)
				if !slices.Equal(resolved(nw, flows), want) {
					t.Fatalf("seed %d (%d flows): Granted or a node's injected/ejected rate differs from the map reference", seed, len(flows))
				}
				for link, w := range nw.weight {
					if w != 0 {
						t.Fatalf("seed %d: Resolve returned with weight[%d] = %v, want all zero", seed, link, w)
					}
				}
			}
		})
	}
}

func TestResolveCarriesNoStateBetweenCalls(t *testing.T) {
	for name, cfg := range referenceTopologies() {
		t.Run(name, func(t *testing.T) {
			nw := New(cfg)
			a, b := randomFlows(xrand.New(101), cfg), randomFlows(xrand.New(102), cfg)
			first := resolved(nw, a)
			resolved(nw, b)
			if !slices.Equal(resolved(nw, a), first) {
				t.Fatal("A, B, A: the second A's answer differs from the first")
			}
			if allocs := testing.AllocsPerRun(20, func() { nw.Resolve(a) }); allocs != 0 {
				t.Errorf("a warmed Resolve of %d flows allocates %.1f, want 0", len(a), allocs)
			}
		})
	}
}
