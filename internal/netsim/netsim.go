// Package netsim models the high-speed interconnect of the simulated
// cluster: an Aries-like topology with a configurable number of switches,
// a fixed number of nodes per switch, all-to-all inter-switch links, and
// per-packet adaptive routing.
//
// Adaptive routing is modelled fractionally: a flow between different
// switches places MinimalBias of its traffic on the direct inter-switch
// link and spreads the remainder evenly over all two-hop (Valiant) paths.
// Bandwidth is then allocated max-min fairly under those fractional link
// weights with per-flow demand caps, via progressive filling. This
// reproduces the paper's Figure 6 observation that redundant links plus
// adaptive routing bound the damage network anomalies can do.
package netsim

import (
	"fmt"
	"math"
)

// Config describes the interconnect.
type Config struct {
	Switches       int     // number of switches (routers)
	NodesPerSwitch int     // compute nodes attached to each switch
	NICBW          float64 // bytes/s injection/ejection bandwidth per node
	LinkBW         float64 // bytes/s per directed inter-switch link
	Adaptive       bool    // spread traffic over two-hop paths
	MinimalBias    float64 // fraction of traffic kept on the direct link when Adaptive
	// Groups partitions the switches into a two-level dragonfly when
	// > 1 (see Dragonfly); 0 or 1 keeps a flat all-to-all switch fabric.
	Groups int
	// GlobalBW is the per-direction bandwidth of each inter-group
	// (optical) link when Groups > 1.
	GlobalBW float64
}

// Voltrino returns an interconnect resembling the paper's Cray XC40m test
// system: 4 nodes per switch, highly redundant inter-switch connectivity,
// and adaptive routing that keeps only a small bias on the minimal path.
func Voltrino() Config {
	return Config{
		Switches:       12,
		NodesPerSwitch: 4,
		NICBW:          10e9,
		LinkBW:         5e9,
		Adaptive:       true,
		MinimalBias:    0.2,
	}
}

// Star returns a single-switch topology like Chameleon Cloud's star
// network, where contention can only occur at the NICs.
func Star(nodes int) Config {
	return Config{
		Switches:       1,
		NodesPerSwitch: nodes,
		NICBW:          10e9,
		LinkBW:         10e9,
		Adaptive:       false,
		MinimalBias:    1,
	}
}

// Nodes returns the total number of attached compute nodes.
func (c Config) Nodes() int { return c.Switches * c.NodesPerSwitch }

// SwitchOf returns the switch a node attaches to.
func (c Config) SwitchOf(nodeID int) int { return nodeID / c.NodesPerSwitch }

// Flow is one unidirectional traffic stream between two nodes. Demand is
// the offered load in bytes/s (use math.Inf(1) for an elastic bulk flow);
// Granted is filled in by Resolve.
type Flow struct {
	Src, Dst int     // node ids
	Demand   float64 // offered bytes/s
	Granted  float64 // allocated bytes/s (output)
}

// link identifiers: injection links are [0,N), ejection links [N,2N),
// inter-switch links follow, one per ordered switch pair.
type Network struct {
	cfg      Config
	capacity []float64 // static capacity per link id
	nInj     int
	swBase   int
	glBase   int

	injected []float64 // bytes/s currently injected per node (for counters)
	ejected  []float64

	// Resolve's scratch, reused across calls so a steady-state Resolve
	// allocates nothing. Nothing in it carries over between calls.
	remaining []float64   // capacity left per link
	states    []flowState // one per routable flow, in flow order
	uses      []use       // every state's fractional route, back to back
	weight    []float64   // per link: summed weight of the active flows; all zero between rounds
	touched   []int       // the links with a non-zero weight this round
}

// flowState is one routable flow during progressive filling; its
// fractional route is Network.uses[lo:hi].
type flowState struct {
	flow   *Flow
	lo, hi int
	rate   float64
	active bool
}

// New builds the network. It panics on a non-positive geometry.
func New(cfg Config) *Network {
	if cfg.Switches <= 0 || cfg.NodesPerSwitch <= 0 {
		panic(fmt.Sprintf("netsim: bad geometry %+v", cfg))
	}
	if cfg.MinimalBias <= 0 || cfg.MinimalBias > 1 {
		cfg.MinimalBias = 1
	}
	cfg.validateGroups()
	n := cfg.Nodes()
	nLinks := 2*n + cfg.Switches*cfg.Switches
	glBase := nLinks
	if cfg.Groups > 1 {
		nLinks += cfg.Groups * cfg.Groups
	}
	net := &Network{
		cfg:       cfg,
		capacity:  make([]float64, nLinks),
		nInj:      n,
		swBase:    2 * n,
		glBase:    glBase,
		injected:  make([]float64, n),
		ejected:   make([]float64, n),
		remaining: make([]float64, nLinks),
		weight:    make([]float64, nLinks),
	}
	for i := 0; i < n; i++ {
		net.capacity[i] = cfg.NICBW   // injection
		net.capacity[n+i] = cfg.NICBW // ejection
	}
	// Electrical level: all-to-all within a group (the whole fabric when
	// the topology is flat).
	for a := 0; a < cfg.Switches; a++ {
		for b := 0; b < cfg.Switches; b++ {
			if a != b && cfg.groupOf(a) == cfg.groupOf(b) {
				net.capacity[net.swLink(a, b)] = cfg.LinkBW
			}
		}
	}
	// Optical level: one link per ordered group pair.
	if cfg.Groups > 1 {
		gbw := cfg.GlobalBW
		if gbw <= 0 {
			gbw = cfg.LinkBW
		}
		for a := 0; a < cfg.Groups; a++ {
			for b := 0; b < cfg.Groups; b++ {
				if a != b {
					net.capacity[net.globalLink(a, b)] = gbw
				}
			}
		}
	}
	return net
}

// Config returns the network configuration.
func (nw *Network) Config() Config { return nw.cfg }

func (nw *Network) swLink(a, b int) int { return nw.swBase + a*nw.cfg.Switches + b }

// use is one (link, weight) pair of a flow's fractional route.
type use struct {
	link   int
	weight float64
}

// route appends the fractional link uses of a flow to uses.
func (nw *Network) route(f *Flow, uses []use) []use {
	cfg := nw.cfg
	uses = append(uses, use{f.Src, 1}, use{nw.nInj + f.Dst, 1})
	sa, sb := cfg.SwitchOf(f.Src), cfg.SwitchOf(f.Dst)
	if sa == sb {
		return uses
	}
	if cfg.Groups > 1 && cfg.groupOf(sa) != cfg.groupOf(sb) {
		return nw.routeDragonfly(f, uses)
	}
	// Intra-group (or flat fabric): direct link plus Valiant spreading
	// over the group's other switches.
	size := cfg.groupSize()
	base := cfg.groupOf(sa) * size
	bias := cfg.MinimalBias
	if !cfg.Adaptive || size <= 2 {
		bias = 1
	}
	uses = append(uses, use{nw.swLink(sa, sb), bias})
	if bias < 1 {
		nMid := size - 2
		w := (1 - bias) / float64(nMid)
		for m := base; m < base+size; m++ {
			if m == sa || m == sb {
				continue
			}
			uses = append(uses, use{nw.swLink(sa, m), w}, use{nw.swLink(m, sb), w})
		}
	}
	return uses
}

// Resolve allocates bandwidth to the given flows max-min fairly and
// writes each flow's Granted field. Flows with non-positive demand get 0.
// It also records the per-node injected/ejected rates for NIC counters.
func (nw *Network) Resolve(flows []*Flow) {
	rem := nw.remaining
	copy(rem, nw.capacity)
	clear(nw.injected)
	clear(nw.ejected)

	states, uses := nw.states[:0], nw.uses[:0]
	for _, f := range flows {
		f.Granted = 0
		if f.Demand <= 0 {
			continue
		}
		if f.Src == f.Dst || f.Src < 0 || f.Dst < 0 || f.Src >= nw.nInj || f.Dst >= nw.nInj {
			continue
		}
		lo := len(uses)
		uses = nw.route(f, uses)
		states = append(states, flowState{flow: f, lo: lo, hi: len(uses), active: true})
	}
	nw.states, nw.uses = states, uses

	// Progressive filling: raise all active flows' rates by the largest
	// uniform increment no link or demand permits exceeding, then retire
	// saturated flows. Each iteration retires at least one flow or link,
	// so this terminates in O(flows + links) rounds.
	const eps = 1e-6
	weight := nw.weight
	for {
		// Weighted active count per link, summed in flow order.
		nActive := 0
		touched := nw.touched[:0]
		for i := range states {
			st := &states[i]
			if !st.active {
				continue
			}
			nActive++
			for _, u := range uses[st.lo:st.hi] {
				if weight[u.link] == 0 {
					touched = append(touched, u.link)
				}
				weight[u.link] += u.weight
			}
		}
		nw.touched = touched
		if nActive == 0 {
			break
		}
		delta := math.Inf(1)
		for _, link := range touched {
			w := weight[link]
			weight[link] = 0 // all zero again for the next round, and on return
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
		// Apply the increment.
		for i := range states {
			st := &states[i]
			if !st.active {
				continue
			}
			st.rate += delta
			for _, u := range uses[st.lo:st.hi] {
				rem[u.link] -= delta * u.weight
			}
		}
		// Retire demand-satisfied flows and flows on saturated links.
		progressed := false
		for i := range states {
			st := &states[i]
			if !st.active {
				continue
			}
			if st.rate >= st.flow.Demand-eps {
				st.active = false
				progressed = true
				continue
			}
			for _, u := range uses[st.lo:st.hi] {
				if u.weight > 0 && rem[u.link] <= eps {
					st.active = false
					progressed = true
					break
				}
			}
		}
		if !progressed && delta <= eps {
			// Numerical stall: freeze everything.
			for i := range states {
				states[i].active = false
			}
		}
	}

	for i := range states {
		f := states[i].flow
		f.Granted = states[i].rate
		nw.injected[f.Src] += f.Granted
		nw.ejected[f.Dst] += f.Granted
	}
}

// InjectedRate returns the bytes/s most recently injected by the node's
// NIC, for monitoring counters.
func (nw *Network) InjectedRate(nodeID int) float64 { return nw.injected[nodeID] }

// EjectedRate returns the bytes/s most recently delivered to the node.
func (nw *Network) EjectedRate(nodeID int) float64 { return nw.ejected[nodeID] }
