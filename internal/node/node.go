package node

import (
	"fmt"
	"math"
	"slices"

	"hpas/internal/units"
	"hpas/internal/xrand"
)

// CacheLine is the cache line size used to convert miss counts into
// memory traffic.
const CacheLine = 64

// Demand describes the resources a process wants during one tick, at the
// speed it would run unimpeded.
type Demand struct {
	// CPU is the fraction of one hardware thread wanted (0..1). A busy
	// loop demands 1; cpuoccupy at 40% intensity demands 0.4.
	CPU float64
	// WorkingSet is the size of the process's hot data.
	WorkingSet units.ByteSize
	// APKI is the number of cache accesses per kilo-instruction.
	APKI float64
	// IPS is the instruction issue rate (instructions/second) the process
	// would achieve on an uncontended thread with an all-L1 working set.
	// Zero means "clock-bound": the node substitutes its clock rate.
	IPS float64
	// StreamBW is non-temporal (cache-bypassing) memory traffic demanded,
	// in bytes/second at full speed. Used by membw and STREAM.
	StreamBW float64
	// Resident is the process's resident memory.
	Resident units.ByteSize
}

// Grant reports the resources a process received during one tick.
type Grant struct {
	// CPUShare is the granted fraction of the thread (0..1) after
	// fair-share scheduling.
	CPUShare float64
	// SMT is the throughput factor from SMT co-residency (1 when the
	// sibling thread is idle, spec.SMTFactor when busy).
	SMT float64
	// CovL1, CovL2, CovL3 are the cumulative fractions of the working set
	// resident at or below each cache level (CovL1 <= CovL2 <= CovL3 <= 1).
	CovL1, CovL2, CovL3 float64
	// BWFrac is the granted fraction of demanded memory bandwidth (0..1].
	BWFrac float64
	// OOMKilled is set when the node's OOM killer selected this process.
	OOMKilled bool

	spec *MachineSpec
}

// CPUEff returns the effective compute throughput factor of the thread:
// granted share times the SMT factor.
func (g Grant) CPUEff() float64 { return g.CPUShare * g.SMT }

// CPI returns the average cycles per instruction implied by the grant for
// a process issuing apki accesses per kilo-instruction, relative to a base
// CPI of 1. Memory-level misses are inflated by bandwidth throttling.
func (g Grant) CPI(apki float64) float64 {
	if g.spec == nil {
		return 1
	}
	fL2 := g.CovL2 - g.CovL1
	fL3 := g.CovL3 - g.CovL2
	fMem := 1 - g.CovL3
	bw := g.BWFrac
	if bw < 0.02 {
		bw = 0.02
	}
	perAccess := fL2*g.spec.L2Penalty + fL3*g.spec.L3Penalty + fMem*g.spec.MemPenalty/bw
	return 1 + apki/1000*perAccess
}

// EffIPS returns the instructions/second a process achieves under this
// grant given its unimpeded issue rate ips and access intensity apki.
func (g Grant) EffIPS(ips, apki float64) float64 {
	if g.spec != nil && (ips <= 0 || ips > g.spec.ClockHz) {
		ips = g.spec.ClockHz
	}
	return ips * g.CPUEff() / g.CPI(apki)
}

// Proc is a process resident on a node. Implementations include the
// synthetic anomalies and the per-rank application models.
type Proc interface {
	// Name identifies the process in reports and metrics.
	Name() string
	// Demand is called once per tick before contention resolution.
	Demand(now float64) Demand
	// Advance is called once per tick with the resolved grant. The
	// process updates its internal progress and returns its usage.
	Advance(now, dt float64, g Grant) Usage
	// Done reports whether the process has finished and should be
	// removed from the node.
	Done() bool
}

// Usage reports what a process actually consumed during one tick, for
// hardware-counter accounting.
type Usage struct {
	Instructions float64 // instructions retired
	CPUSeconds   float64 // thread-seconds of CPU time
	L2Misses     float64 // accesses missing L1+L2
	L3Misses     float64 // accesses missing all caches
	MemBytes     float64 // bytes moved to/from memory (incl. streaming)
}

// Counters are the per-node cumulative hardware/OS counters sampled by
// the monitor. All values are monotonically non-decreasing except
// MemUsed, which is instantaneous.
type Counters struct {
	UserSeconds  float64 // user CPU time (thread-seconds)
	SysSeconds   float64 // system CPU time (thread-seconds)
	Instructions float64
	L2Misses     float64
	L3Misses     float64
	MemBytes     float64        // cumulative memory traffic
	PageFaults   float64        // cumulative, incremented on allocation growth
	MemUsed      units.ByteSize // instantaneous resident total (incl. baseline)
	OOMKills     int
}

type placement struct {
	proc Proc
	cpu  int
	// the cpu's physical core, socket and SMT sibling, recorded by Place
	// so the resolve passes do not call (and copy) the MachineSpec
	core, socket, sibling int
	res                   units.ByteSize // resident bytes last tick, for pgfault accounting
}

// Node is one simulated compute node.
type Node struct {
	// Spec is the node's hardware. It is read-only after New: placements
	// cache the topology derived from it.
	Spec MachineSpec
	ID   int

	procs    []*placement
	ctr      Counters
	rng      *xrand.RNG
	lastLoad float64

	// scratch buffers reused across ticks
	demands []Demand
	grants  []Grant
	// per-thread, per-core, per-socket and per-process sums of the
	// resolve passes, zeroed at the start of the pass that owns them
	threadDemand, coreWS, sockWS, sockDemand, bwDemand []float64
}

// New returns a node with the given spec and deterministic noise seed.
func New(id int, spec MachineSpec, rng *xrand.RNG) *Node {
	if rng == nil {
		rng = xrand.New(uint64(id)*0x9e37 + 1)
	}
	n := &Node{Spec: spec, ID: id, rng: rng}
	n.ctr.MemUsed = spec.BaselineResident
	return n
}

// Place pins proc to the given logical CPU. cpu == -1 picks the
// least-loaded thread-0 CPU (filling physical cores before siblings).
// It panics on an out-of-range CPU.
func (n *Node) Place(proc Proc, cpu int) {
	if cpu == -1 {
		cpu = n.leastLoadedCPU()
	}
	if cpu < 0 || cpu >= n.Spec.Threads() {
		panic(fmt.Sprintf("node: cpu %d out of range [0,%d)", cpu, n.Spec.Threads()))
	}
	n.procs = append(n.procs, &placement{
		proc: proc, cpu: cpu,
		core: n.Spec.CoreOf(cpu), socket: n.Spec.SocketOf(cpu), sibling: n.Spec.Sibling(cpu),
	})
}

func (n *Node) leastLoadedCPU() int {
	load := make([]int, n.Spec.Threads())
	for _, p := range n.procs {
		load[p.cpu]++
	}
	best, bestLoad := 0, math.MaxInt
	for cpu := 0; cpu < n.Spec.Threads(); cpu++ {
		if load[cpu] < bestLoad {
			best, bestLoad = cpu, load[cpu]
		}
	}
	return best
}

// Remove detaches proc from the node. It is a no-op if absent.
func (n *Node) Remove(proc Proc) {
	for i, p := range n.procs {
		if p.proc == proc {
			// Delete nils the vacated tail slot, so the removed proc
			// (and the job it points to) can be collected.
			n.procs = slices.Delete(n.procs, i, i+1)
			return
		}
	}
}

// NumProcs returns the number of resident processes.
func (n *Node) NumProcs() int { return len(n.procs) }

// Proc returns the i-th resident process in placement order. With
// NumProcs it walks the residents in place; the walk must not place or
// remove processes on this node.
func (n *Node) Proc(i int) Proc { return n.procs[i].proc }

// CPUOf returns the logical CPU proc is pinned to, or -1 if absent.
func (n *Node) CPUOf(proc Proc) int {
	for _, p := range n.procs {
		if p.proc == proc {
			return p.cpu
		}
	}
	return -1
}

// Counters returns a copy of the node's cumulative counters.
func (n *Node) Counters() Counters { return n.ctr }

// MemFree returns the node's free memory.
func (n *Node) MemFree() units.ByteSize {
	free := n.Spec.Memory - n.ctr.MemUsed
	if free < 0 {
		free = 0
	}
	return free
}

// CPULoad returns the instantaneous fraction of all hardware threads that
// were busy during the last tick (0..1), as /proc/loadavg-style samplers
// would derive it.
func (n *Node) CPULoad() float64 { return n.lastLoad }

// Tick resolves one step of contention and advances all processes.
// Finished processes are removed afterwards.
func (n *Node) Tick(now, dt float64) {
	spec := &n.Spec
	np := len(n.procs)
	if cap(n.demands) < np {
		n.demands = make([]Demand, np)
		n.grants = make([]Grant, np)
	}
	demands := n.demands[:np]
	grants := n.grants[:np]

	for i, p := range n.procs {
		demands[i] = p.proc.Demand(now)
		grants[i] = Grant{SMT: 1, BWFrac: 1, spec: spec}
	}

	n.resolveCPU(demands, grants)
	n.resolveCache(demands, grants)
	n.resolveMemBW(demands, grants)
	n.resolveMemory(demands, grants)

	// Advance processes and account usage.
	var busy float64
	for i, p := range n.procs {
		u := p.proc.Advance(now, dt, grants[i])
		n.ctr.UserSeconds += u.CPUSeconds
		n.ctr.Instructions += u.Instructions
		n.ctr.L2Misses += u.L2Misses
		n.ctr.L3Misses += u.L3Misses
		n.ctr.MemBytes += u.MemBytes
		busy += grants[i].CPUShare * minf(demands[i].CPU, 1)
		// Page faults: first-touch on resident growth (4 KiB pages).
		if demands[i].Resident > p.res {
			n.ctr.PageFaults += float64(demands[i].Resident-p.res) / 4096
		}
		p.res = demands[i].Resident
	}

	// OS noise: background system CPU time.
	sysBusy := spec.OSNoise * n.rng.Jitter(0.4)
	n.ctr.SysSeconds += sysBusy * dt
	n.lastLoad = (busy + sysBusy) / float64(spec.Threads())

	// Instantaneous memory usage.
	used := spec.BaselineResident
	for i := range n.procs {
		used += demands[i].Resident
	}
	n.ctr.MemUsed = used

	// Drop finished processes.
	kept := n.procs[:0]
	for _, p := range n.procs {
		if !p.proc.Done() {
			kept = append(kept, p)
		}
	}
	clear(n.procs[len(kept):]) // let the finished procs be collected
	n.procs = kept
}

// resolveCPU fair-shares each logical CPU among its resident processes
// and applies the SMT penalty when a sibling thread is busy.
func (n *Node) resolveCPU(demands []Demand, grants []Grant) {
	spec := &n.Spec
	threadDemand := zeroed(&n.threadDemand, spec.Threads())
	for i, p := range n.procs {
		threadDemand[p.cpu] += demands[i].CPU
	}
	for i, p := range n.procs {
		td := threadDemand[p.cpu]
		share := demands[i].CPU
		if td > 1 {
			share = demands[i].CPU / td
		}
		grants[i].CPUShare = share
		if p.sibling != p.cpu && threadDemand[p.sibling] > 0.05 {
			grants[i].SMT = spec.SMTFactor
		}
	}
}

// resolveCache assigns proportional occupancy at each level. L1/L2 are
// shared by the SMT siblings of a physical core; L3 by all CPUs of a
// socket. Coverage at a level is the fraction of the working set that
// fits in the process's occupancy share, made cumulative across levels.
func (n *Node) resolveCache(demands []Demand, grants []Grant) {
	spec := &n.Spec
	coreWS := zeroed(&n.coreWS, spec.PhysCores())
	sockWS := zeroed(&n.sockWS, spec.Sockets)
	for i, p := range n.procs {
		ws := float64(demands[i].WorkingSet)
		coreWS[p.core] += ws
		sockWS[p.socket] += ws
	}
	for i, p := range n.procs {
		ws := float64(demands[i].WorkingSet)
		if ws <= 0 {
			grants[i].CovL1, grants[i].CovL2, grants[i].CovL3 = 1, 1, 1
			continue
		}
		c1 := coverage(ws, coreWS[p.core], float64(spec.L1))
		c2 := coverage(ws, coreWS[p.core], float64(spec.L2))
		c3 := coverage(ws, sockWS[p.socket], float64(spec.L3))
		if c2 < c1 {
			c2 = c1
		}
		if c3 < c2 {
			c3 = c2
		}
		grants[i].CovL1, grants[i].CovL2, grants[i].CovL3 = c1, c2, c3
	}
}

// coverage returns the fraction of a process working set ws resident in a
// cache of the given capacity when the sharing domain demands totalWS.
func coverage(ws, totalWS, capacity float64) float64 {
	alloc := ws
	if totalWS > capacity {
		alloc = capacity * ws / totalWS
	}
	c := alloc / ws
	if c > 1 {
		c = 1
	}
	return c
}

// resolveMemBW throttles per-socket streaming+miss traffic proportionally
// when the socket's bandwidth ceiling is exceeded.
func (n *Node) resolveMemBW(demands []Demand, grants []Grant) {
	spec := &n.Spec
	sockDemand := zeroed(&n.sockDemand, spec.Sockets)
	bwDemand := zeroed(&n.bwDemand, len(n.procs))
	for i, p := range n.procs {
		d := &demands[i]
		ips := d.IPS
		if ips <= 0 || ips > spec.ClockHz {
			ips = spec.ClockHz
		}
		// Miss traffic at the issue rate the process can actually
		// sustain given its cache misses (BWFrac=1 first-pass CPI):
		// without the stall correction, cache-hungry processes would
		// appear to demand memory bandwidth they can never generate.
		g := &grants[i]
		fL2 := g.CovL2 - g.CovL1
		fL3 := g.CovL3 - g.CovL2
		fMem := 1 - g.CovL3
		cpi := 1 + d.APKI/1000*(fL2*spec.L2Penalty+fL3*spec.L3Penalty+fMem*spec.MemPenalty)
		missRate := ips / cpi * d.APKI / 1000 * fMem
		bw := d.StreamBW + missRate*CacheLine
		bwDemand[i] = bw
		sockDemand[p.socket] += bw * g.CPUEff()
	}
	capBW := float64(spec.MemBWPerSocket)
	for i, p := range n.procs {
		if sockDemand[p.socket] > capBW && bwDemand[i] > 0 {
			grants[i].BWFrac = capBW / sockDemand[p.socket]
		}
	}
}

// resolveMemory triggers the OOM killer while total resident demand
// exceeds physical memory: the largest-resident process is killed first,
// mirroring Linux's badness heuristic on swapless HPC nodes.
func (n *Node) resolveMemory(demands []Demand, grants []Grant) {
	spec := &n.Spec
	total := spec.BaselineResident
	for i := range n.procs {
		total += demands[i].Resident
	}
	for total > spec.Memory {
		victim := -1
		var victimRes units.ByteSize
		for i := range n.procs {
			if grants[i].OOMKilled {
				continue
			}
			if demands[i].Resident > victimRes {
				victim, victimRes = i, demands[i].Resident
			}
		}
		if victim < 0 {
			break
		}
		grants[victim].OOMKilled = true
		n.ctr.OOMKills++
		total -= victimRes
	}
}

// zeroed returns *buf resized to n zeros, reallocating only to grow.
func zeroed(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
