// Package cluster assembles the simulated machine: a set of compute nodes
// (internal/node), the interconnect (internal/netsim), and the shared
// filesystem (internal/storage). It implements sim.Ticker and is the
// single place where cross-subsystem demands are gathered and resolved
// each tick.
//
// Processes are node.Proc values. A process that also implements
// FlowSource has its network flows resolved before nodes advance, so the
// granted rates are visible in the same tick's Advance. Likewise a
// process implementing Client has its filesystem demand served each tick.
package cluster

import (
	"fmt"

	"hpas/internal/netsim"
	"hpas/internal/node"
	"hpas/internal/sim"
	"hpas/internal/storage"
	"hpas/internal/xrand"
)

// FlowSource is a process that injects traffic into the interconnect.
// Flows returns the process's active flows with node-id endpoints; the
// cluster resolves them max-min fairly before Advance runs, so the
// process can read Flow.Granted during Advance. The returned slice is
// read before the next call to Flows and not kept, so an implementation
// may return the same one every tick.
type FlowSource interface {
	node.Proc
	Flows(now float64) []*netsim.Flow
}

// Client is a process that uses the shared filesystem. IODemand is
// collected before nodes advance; IOGrant delivers the served rates.
type Client interface {
	node.Proc
	IODemand(now float64) storage.Demand
	IOGrant(g storage.Grant)
}

// Config describes a simulated cluster.
type Config struct {
	Machine node.MachineSpec
	Net     netsim.Config
	FS      storage.Config
	Nodes   int    // compute nodes instantiated (must be <= Net.Nodes())
	Seed    uint64 // master RNG seed
}

// Voltrino returns a cluster resembling the paper's Cray XC40m Haswell
// partition with the given number of nodes.
func Voltrino(nodes int) Config {
	return Config{
		Machine: node.Voltrino(),
		Net:     netsim.Voltrino(),
		FS:      storage.Lustre(),
		Nodes:   nodes,
		Seed:    1,
	}
}

// ChameleonCloud returns a cluster resembling the Chameleon Cloud
// bare-metal testbed: star network and an NFS share.
func ChameleonCloud(nodes int) Config {
	return Config{
		Machine: node.ChameleonCloud(),
		Net:     netsim.Star(nodes),
		FS:      storage.NFS(),
		Nodes:   nodes,
		Seed:    1,
	}
}

// Cluster is the assembled machine.
type Cluster struct {
	cfg   Config
	nodes []*node.Node
	net   *netsim.Network
	fs    *storage.Server
	rng   *xrand.RNG

	// scratch buffers reused across ticks
	flows   []*netsim.Flow
	clients []Client
	demands []storage.Demand
}

// New builds a cluster. It panics when more nodes are requested than the
// network topology can attach.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if cfg.Nodes > cfg.Net.Nodes() {
		panic(fmt.Sprintf("cluster: %d nodes exceed topology capacity %d", cfg.Nodes, cfg.Net.Nodes()))
	}
	rng := xrand.New(cfg.Seed)
	c := &Cluster{
		cfg: cfg,
		net: netsim.New(cfg.Net),
		fs:  storage.New(cfg.FS),
		rng: rng,
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, node.New(i, cfg.Machine, rng.Split()))
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumNodes returns the number of compute nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// Net returns the interconnect.
func (c *Cluster) Net() *netsim.Network { return c.net }

// FS returns the shared filesystem server.
func (c *Cluster) FS() *storage.Server { return c.fs }

// RNG returns a fresh deterministic random stream derived from the
// cluster seed, for workload generators.
func (c *Cluster) RNG() *xrand.RNG { return c.rng.Split() }

// Place pins proc onto the given node and logical CPU (cpu == -1 picks
// the least-loaded CPU).
func (c *Cluster) Place(p node.Proc, nodeID, cpu int) {
	c.nodes[nodeID].Place(p, cpu)
}

// Remove detaches proc from the given node.
func (c *Cluster) Remove(p node.Proc, nodeID int) {
	c.nodes[nodeID].Remove(p)
}

// Tick implements sim.Ticker: resolve network, then filesystem, then
// advance every node.
func (c *Cluster) Tick(now, dt float64) {
	// Flows and IODemand only report — neither places nor removes a
	// process — so both walks read the residents in place, not a copy.

	// Network.
	flows := c.flows[:0]
	for _, n := range c.nodes {
		for i := 0; i < n.NumProcs(); i++ {
			if fs, ok := n.Proc(i).(FlowSource); ok {
				flows = append(flows, fs.Flows(now)...)
			}
		}
	}
	c.flows = flows
	c.net.Resolve(flows)

	// Filesystem.
	clients, demands := c.clients[:0], c.demands[:0]
	for _, n := range c.nodes {
		for i := 0; i < n.NumProcs(); i++ {
			if cl, ok := n.Proc(i).(Client); ok {
				clients = append(clients, cl)
				demands = append(demands, cl.IODemand(now))
			}
		}
	}
	c.clients, c.demands = clients, demands
	if len(clients) > 0 {
		grants := c.fs.Resolve(demands, dt)
		for i, cl := range clients {
			cl.IOGrant(grants[i])
		}
	}

	// Compute nodes.
	for _, n := range c.nodes {
		n.Tick(now, dt)
	}
}

var _ sim.Ticker = (*Cluster)(nil)
