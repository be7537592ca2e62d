package apps

import (
	"fmt"

	"hpas/internal/cluster"
	"hpas/internal/netsim"
	"hpas/internal/node"
)

// Job is a running BSP application: one Rank per allocated hardware
// thread, advancing in lockstep. Each iteration every rank computes
// InstrPerIter instructions and exchanges MsgBytesPerIter with its
// neighbour rank on the next node of the allocation; the slowest rank
// gates the iteration, so a single anomalous node slows the whole job —
// the mechanism behind the paper's Figure 8 and Figure 12.
type Job struct {
	Profile Profile

	ranks    []*Rank
	alive    int
	arrived  int
	progress float64 // completed iterations (fractional)

	started    float64
	finishedAt float64
	done       bool
	failed     bool

	// per-application hardware counters (summed over ranks), the
	// simulated analogue of per-process PAPI counters
	instructions float64
	l2Misses     float64
	l3Misses     float64
	netBytes     float64
}

// Instructions returns the job's total retired instructions.
func (j *Job) Instructions() float64 { return j.instructions }

// L3MPKI returns the job's L3 misses per kilo-instruction.
func (j *Job) L3MPKI() float64 {
	if j.instructions == 0 {
		return 0
	}
	return j.l3Misses / j.instructions * 1000
}

// L2MPKI returns the job's L2 misses per kilo-instruction.
func (j *Job) L2MPKI() float64 {
	if j.instructions == 0 {
		return 0
	}
	return j.l2Misses / j.instructions * 1000
}

// NetBytes returns the job's total halo-exchange traffic.
func (j *Job) NetBytes() float64 { return j.netBytes }

// Rank is one process of a Job, pinned to a node and CPU.
type Rank struct {
	job    *Job
	index  int
	nodeID int
	flow   netsim.Flow
	flows  [1]*netsim.Flow // what Flows returns: &flow, without a slice per tick
	peer   int             // destination node for halo exchange, -1 for none

	lastIPS  float64
	lastRate float64 // granted network bytes/s
	killed   bool
}

// Launch places a job of the given profile onto the listed nodes with
// ranksPerNode ranks each (pinned to physical cores 0..ranksPerNode-1)
// and returns the Job. Halo exchanges flow from every rank to the
// matching rank on the next node of the allocation (ring order); single
// node jobs do no network communication.
func Launch(c *cluster.Cluster, p Profile, nodeIDs []int, ranksPerNode int) *Job {
	if len(nodeIDs) == 0 || ranksPerNode <= 0 {
		panic("apps: empty allocation")
	}
	if ranksPerNode > c.Config().Machine.PhysCores() {
		panic(fmt.Sprintf("apps: %d ranks exceed %d physical cores", ranksPerNode, c.Config().Machine.PhysCores()))
	}
	j := &Job{Profile: p, finishedAt: -1}
	for ni, nodeID := range nodeIDs {
		peer := -1
		if len(nodeIDs) > 1 && p.MsgBytesPerIter > 0 {
			peer = nodeIDs[(ni+1)%len(nodeIDs)]
		}
		for r := 0; r < ranksPerNode; r++ {
			rank := &Rank{job: j, index: len(j.ranks), nodeID: nodeID, peer: peer}
			j.ranks = append(j.ranks, rank)
			c.Place(rank, nodeID, r)
		}
	}
	j.alive = len(j.ranks)
	return j
}

// Done reports whether the job finished (or failed).
func (j *Job) Done() bool { return j.done }

// Failed reports whether the job lost a rank (e.g. to the OOM killer).
func (j *Job) Failed() bool { return j.failed }

// Progress returns completed iterations.
func (j *Job) Progress() float64 { return j.progress }

// FinishedAt returns the simulation time the job completed, or -1.
func (j *Job) FinishedAt() float64 { return j.finishedAt }

// Ranks returns the number of ranks.
func (j *Job) Ranks() int { return len(j.ranks) }

// rankArrived aggregates per-tick state once every live rank advanced.
func (j *Job) rankArrived(now, dt float64) {
	j.arrived++
	if j.arrived < j.alive || j.done {
		return
	}
	j.arrived = 0

	minIPS := 0.0
	minNet := 0.0
	first := true
	for _, r := range j.ranks {
		if r.killed {
			continue
		}
		if first {
			minIPS, minNet = r.lastIPS, r.lastRate
			first = false
			continue
		}
		if r.lastIPS < minIPS {
			minIPS = r.lastIPS
		}
		if r.lastRate < minNet {
			minNet = r.lastRate
		}
	}
	if minIPS <= 0 {
		return
	}
	tc := j.Profile.InstrPerIter / minIPS
	tn := 0.0
	if j.Profile.MsgBytesPerIter > 0 && j.ranks[0].peer >= 0 {
		if minNet <= 0 {
			return // network stalled this tick
		}
		tn = j.Profile.MsgBytesPerIter / minNet
	}
	j.progress += dt / (tc + tn)
	if j.progress >= float64(j.Profile.Iterations) {
		j.done = true
		j.finishedAt = now + dt
	}
}

// rankKilled removes a rank from the job; the job fails.
func (j *Job) rankKilled() {
	j.alive--
	j.failed = true
	if j.alive == 0 {
		j.done = true
	}
}

// Name implements node.Proc.
func (r *Rank) Name() string { return r.job.Profile.Name }

// Done implements node.Proc.
func (r *Rank) Done() bool { return r.job.done || r.killed }

// Demand implements node.Proc.
func (r *Rank) Demand(now float64) node.Demand {
	p := &r.job.Profile
	return node.Demand{
		CPU:        1,
		WorkingSet: p.WorkingSet,
		APKI:       p.APKI,
		IPS:        p.IPS,
		Resident:   p.Resident,
	}
}

// Flows implements cluster.FlowSource: one halo-exchange flow to the
// peer node, offered at the rate the rank could consume it.
func (r *Rank) Flows(now float64) []*netsim.Flow {
	if r.peer < 0 || r.killed || r.job.done {
		return nil
	}
	p := &r.job.Profile
	// Offer the exchange at a rate that would make communication take
	// about 10% of the compute time, bounded below by last tick's
	// achieved IPS — a simple model of MPI pipelining.
	ips := r.lastIPS
	if ips <= 0 {
		ips = 1e9
	}
	demand := p.MsgBytesPerIter * ips / p.InstrPerIter * 10
	r.flow = netsim.Flow{Src: r.nodeID, Dst: r.peer, Demand: demand}
	r.flows[0] = &r.flow
	return r.flows[:]
}

// Advance implements node.Proc.
func (r *Rank) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled && !r.killed {
		r.killed = true
		r.job.rankKilled()
		return node.Usage{}
	}
	p := &r.job.Profile
	r.lastIPS = g.EffIPS(p.IPS, p.APKI)
	r.lastRate = r.flow.Granted
	r.job.rankArrived(now, dt)

	accesses := r.lastIPS * p.APKI / 1000
	u := node.Usage{
		Instructions: r.lastIPS * dt,
		CPUSeconds:   g.CPUShare * dt,
		L2Misses:     accesses * (1 - g.CovL2) * dt,
		L3Misses:     accesses * (1 - g.CovL3) * dt,
		MemBytes:     accesses * (1 - g.CovL3) * node.CacheLine * dt,
	}
	r.job.instructions += u.Instructions
	r.job.l2Misses += u.L2Misses
	r.job.l3Misses += u.L3Misses
	r.job.netBytes += r.flow.Granted * dt
	return u
}
