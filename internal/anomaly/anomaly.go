// Package anomaly implements the eight HPAS synthetic anomalies as
// simulated processes (node.Proc), mirroring Table 1 of the paper:
//
//	cpuoccupy    CPU-intensive process     knob: utilization%
//	cachecopy    cache contention          knobs: level, multiplier, rate
//	membw        memory bandwidth          knobs: buffer size, rate
//	memeater     memory-intensive process  knobs: buffer size, rate
//	memleak      memory leak               knobs: buffer size, rate
//	netoccupy    network contention        knobs: message size, rate
//	iometadata   metadata server stress    knobs: rate, ntasks
//	iobandwidth  I/O bandwidth stress      knobs: file size, ntasks
//
// Every anomaly has a configurable start and end time (Window) and an
// intensity knob, exactly as the paper's userspace generators do. The
// real-host counterparts live in internal/stress; this package produces
// the same contention inside the simulator.
package anomaly

import (
	"math"

	"hpas/internal/netsim"
	"hpas/internal/node"
	"hpas/internal/storage"
	"hpas/internal/units"
)

// Window bounds an anomaly's activity in simulation time. A zero End
// means "until the simulation stops".
type Window struct {
	Start float64
	End   float64
}

// Active reports whether the window covers time now.
func (w Window) Active(now float64) bool {
	return now >= w.Start && (w.End <= 0 || now < w.End)
}

// Expired reports whether the window has closed.
func (w Window) Expired(now float64) bool {
	return w.End > 0 && now >= w.End
}

// CPUOccupy models the cpuoccupy anomaly: arithmetic on registers with a
// duty-cycled sleep, consuming a configurable percentage of one CPU with
// negligible cache and memory footprint.
type CPUOccupy struct {
	Window
	Utilization float64 // percent of one CPU, 0..100
	killed      bool
}

// NewCPUOccupy returns a cpuoccupy anomaly at the given utilization%.
func NewCPUOccupy(utilization float64) *CPUOccupy {
	return &CPUOccupy{Utilization: units.Percent(utilization)}
}

// Name implements node.Proc.
func (a *CPUOccupy) Name() string { return "cpuoccupy" }

// Done implements node.Proc.
func (a *CPUOccupy) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *CPUOccupy) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	return node.Demand{
		CPU:        a.Utilization / 100,
		WorkingSet: 8 * units.KiB,
		APKI:       1,
		Resident:   2 * units.MiB,
	}
}

// Advance implements node.Proc.
func (a *CPUOccupy) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	ips := g.EffIPS(0, 1)
	return node.Usage{
		Instructions: ips * dt,
		CPUSeconds:   g.CPUShare * dt,
	}
}

// CacheLevel selects the target of cachecopy.
type CacheLevel int

// Cache levels addressable by cachecopy.
const (
	L1 CacheLevel = 1
	L2 CacheLevel = 2
	L3 CacheLevel = 3
)

// CacheCopy models the cachecopy anomaly: two arrays, each half the size
// of the chosen cache level (scaled by Multiplier), copied back and forth
// so the target level is fully utilized.
type CacheCopy struct {
	Window
	Level      CacheLevel
	Multiplier float64 // working-set scale, default 1
	Rate       float64 // duty cycle 0..1, default 1
	spec       node.MachineSpec
	killed     bool
}

// NewCacheCopy returns a cachecopy anomaly targeting the given level of
// the given machine's hierarchy.
func NewCacheCopy(spec node.MachineSpec, level CacheLevel) *CacheCopy {
	return &CacheCopy{Level: level, Multiplier: 1, Rate: 1, spec: spec}
}

// WorkingSet returns the total size of the two copy arrays.
func (a *CacheCopy) WorkingSet() units.ByteSize {
	var base units.ByteSize
	switch a.Level {
	case L1:
		base = a.spec.L1
	case L2:
		base = a.spec.L2
	default:
		base = a.spec.L3
	}
	m := a.Multiplier
	if m <= 0 {
		m = 1
	}
	return units.ByteSize(float64(base) * m)
}

// Name implements node.Proc.
func (a *CacheCopy) Name() string { return "cachecopy" }

// Done implements node.Proc.
func (a *CacheCopy) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *CacheCopy) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	rate := a.Rate
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	ws := a.WorkingSet()
	return node.Demand{
		CPU:        rate,
		WorkingSet: ws,
		APKI:       300, // a copy loop is almost all loads/stores
		Resident:   ws + 2*units.MiB,
	}
}

// Advance implements node.Proc.
func (a *CacheCopy) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	ips := g.EffIPS(0, 300)
	accesses := ips * 300 / 1000
	return node.Usage{
		Instructions: ips * dt,
		CPUSeconds:   g.CPUShare * dt,
		L2Misses:     accesses * (1 - g.CovL2) * dt,
		L3Misses:     accesses * (1 - g.CovL3) * dt,
		MemBytes:     accesses * (1 - g.CovL3) * node.CacheLine * dt,
	}
}

// MemBW models the membw anomaly: non-temporal (cache-bypassing) matrix
// transposes that saturate memory bandwidth while leaving the caches
// almost untouched. Because the stores carry the non-temporal hint they
// do not appear in cache-miss counters — the monitoring blind spot the
// paper calls out.
type MemBW struct {
	Window
	BufferSize units.ByteSize // working buffer (stack matrices)
	Rate       float64        // duty cycle 0..1, default 1
	StreamBW   float64        // bytes/s demanded at full duty, default 18 GB/s
	killed     bool
}

// NewMemBW returns a membw anomaly with default knobs.
func NewMemBW() *MemBW {
	return &MemBW{BufferSize: 16 * units.MiB, Rate: 1, StreamBW: 18e9}
}

// Name implements node.Proc.
func (a *MemBW) Name() string { return "membw" }

// Done implements node.Proc.
func (a *MemBW) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *MemBW) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	rate := a.Rate
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	bw := a.StreamBW
	if bw <= 0 {
		bw = 18e9
	}
	return node.Demand{
		CPU:        rate,
		WorkingSet: 64 * units.KiB, // NT stores bypass the cache
		APKI:       2,
		StreamBW:   bw * rate,
		Resident:   a.BufferSize + 2*units.MiB,
	}
}

// Advance implements node.Proc.
func (a *MemBW) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	d := a.Demand(now)
	moved := d.StreamBW * g.BWFrac * g.CPUEff() * dt
	return node.Usage{
		Instructions: g.EffIPS(0, 2) * dt,
		CPUSeconds:   g.CPUShare * dt,
		MemBytes:     moved,
	}
}

// MemEater models the memeater anomaly: it allocates a buffer, fills it
// with random values, and keeps re-touching it; the footprint ramps to
// Limit during the first RampTime seconds and then stays flat.
type MemEater struct {
	Window
	ChunkSize units.ByteSize // per-realloc growth (paper default 35 MB)
	Limit     units.ByteSize // final footprint
	Rate      float64        // realloc+fill iterations per second
	killed    bool
}

// NewMemEater returns a memeater growing in 35 MiB steps to limit.
func NewMemEater(limit units.ByteSize) *MemEater {
	return &MemEater{ChunkSize: 35 * units.MiB, Limit: limit, Rate: 1}
}

// resident returns the footprint at time now.
func (a *MemEater) resident(now float64) units.ByteSize {
	if !a.Active(now) {
		return 0
	}
	rate := a.Rate
	if rate <= 0 {
		rate = 1
	}
	grown := units.ByteSize(float64(a.ChunkSize) * (1 + rate*(now-a.Start)))
	if grown > a.Limit {
		grown = a.Limit
	}
	return grown
}

// Name implements node.Proc.
func (a *MemEater) Name() string { return "memeater" }

// Done implements node.Proc.
func (a *MemEater) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *MemEater) Demand(now float64) node.Demand {
	res := a.resident(now)
	if res == 0 {
		return node.Demand{}
	}
	// Filling pages sequentially streams through the cache: the hot set
	// stays small and the generator sleeps between iterations, so the
	// CPU and cache footprint is minor (the paper's Figure 8 shows no
	// visible slowdown from memeater on any application).
	return node.Demand{
		CPU:        0.04,
		WorkingSet: 128 * units.KiB,
		APKI:       150,
		Resident:   res,
	}
}

// Advance implements node.Proc.
func (a *MemEater) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	ips := g.EffIPS(0, 120)
	accesses := ips * 120 / 1000
	return node.Usage{
		Instructions: ips * dt,
		CPUSeconds:   g.CPUShare * dt,
		L2Misses:     accesses * (1 - g.CovL2) * dt,
		L3Misses:     accesses * (1 - g.CovL3) * dt,
		MemBytes:     accesses * (1 - g.CovL3) * node.CacheLine * dt,
	}
}

// MemLeak models the memleak anomaly: every iteration allocates a fresh
// buffer, fills it, and forgets the pointer, so the footprint grows
// without bound until the OOM killer intervenes or the window closes.
type MemLeak struct {
	Window
	ChunkSize units.ByteSize // per-iteration allocation (paper default 20 MB)
	Rate      float64        // iterations per second
	Limit     units.ByteSize // optional growth cap (0 = unbounded)
	killed    bool
}

// NewMemLeak returns a memleak allocating 20 MiB chunks at the given
// iteration rate.
func NewMemLeak(rate float64) *MemLeak {
	return &MemLeak{ChunkSize: 20 * units.MiB, Rate: rate}
}

// resident returns the leaked footprint at time now.
func (a *MemLeak) resident(now float64) units.ByteSize {
	if now < a.Start {
		return 0
	}
	end := now
	if a.End > 0 && end > a.End {
		end = a.End
	}
	rate := a.Rate
	if rate <= 0 {
		rate = 1
	}
	leaked := units.ByteSize(float64(a.ChunkSize) * rate * (end - a.Start))
	if a.Limit > 0 && leaked > a.Limit {
		leaked = a.Limit
	}
	return leaked
}

// Name implements node.Proc.
func (a *MemLeak) Name() string { return "memleak" }

// Done implements node.Proc.
func (a *MemLeak) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *MemLeak) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	// Only the freshly filled chunk is touched, sequentially, and the
	// generator sleeps between iterations: low CPU, tiny hot set.
	return node.Demand{
		CPU:        0.02,
		WorkingSet: 64 * units.KiB,
		APKI:       150,
		Resident:   a.resident(now),
	}
}

// Advance implements node.Proc.
func (a *MemLeak) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	ips := g.EffIPS(0, 120)
	accesses := ips * 120 / 1000
	return node.Usage{
		Instructions: ips * dt,
		CPUSeconds:   g.CPUShare * dt,
		L2Misses:     accesses * (1 - g.CovL2) * dt,
		L3Misses:     accesses * (1 - g.CovL3) * dt,
		MemBytes:     accesses * (1 - g.CovL3) * node.CacheLine * dt,
	}
}

// NetOccupy models one side of the netoccupy anomaly: a rank that
// streams large messages (default 100 MB) to its paired rank on another
// node via shmem_putmem-style puts.
type NetOccupy struct {
	Window
	SrcNode, DstNode int
	MessageSize      units.ByteSize // default 100 MB
	Rate             float64        // messages/s; 0 = as fast as possible
	flow             netsim.Flow
	flows            [1]*netsim.Flow // what Flows returns: &flow, without a slice per tick
	killed           bool
}

// NewNetOccupy returns a netoccupy instance streaming from src to dst.
func NewNetOccupy(srcNode, dstNode int) *NetOccupy {
	return &NetOccupy{SrcNode: srcNode, DstNode: dstNode, MessageSize: 100 * units.MiB}
}

// Name implements node.Proc.
func (a *NetOccupy) Name() string { return "netoccupy" }

// Done implements node.Proc.
func (a *NetOccupy) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *NetOccupy) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	return node.Demand{
		CPU:        0.3, // the NIC does the heavy lifting
		WorkingSet: a.MessageSize,
		APKI:       10,
		Resident:   2 * a.MessageSize,
	}
}

// Flows implements cluster.FlowSource.
func (a *NetOccupy) Flows(now float64) []*netsim.Flow {
	if !a.Active(now) {
		return nil
	}
	demand := math.Inf(1)
	if a.Rate > 0 {
		demand = float64(a.MessageSize) * a.Rate
	}
	a.flow = netsim.Flow{Src: a.SrcNode, Dst: a.DstNode, Demand: demand}
	a.flows[0] = &a.flow
	return a.flows[:]
}

// Granted returns the bytes/s the anomaly achieved last tick.
func (a *NetOccupy) Granted() float64 { return a.flow.Granted }

// Advance implements node.Proc.
func (a *NetOccupy) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	return node.Usage{
		Instructions: g.EffIPS(2e8, 10) * dt,
		CPUSeconds:   g.CPUShare * dt,
	}
}

// IOMetadata models the iometadata anomaly: create, write one byte,
// close, and delete files in a loop, hammering the metadata service.
type IOMetadata struct {
	Window
	Rate   float64 // metadata ops/s offered per task
	NTasks int     // concurrent tasks in this instance
	grant  storage.Grant
	killed bool
}

// NewIOMetadata returns an iometadata instance issuing rate ops/s.
func NewIOMetadata(rate float64, ntasks int) *IOMetadata {
	if ntasks <= 0 {
		ntasks = 1
	}
	return &IOMetadata{Rate: rate, NTasks: ntasks}
}

// Name implements node.Proc.
func (a *IOMetadata) Name() string { return "iometadata" }

// Done implements node.Proc.
func (a *IOMetadata) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *IOMetadata) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	return node.Demand{CPU: 0.1 * float64(a.NTasks), Resident: 4 * units.MiB}
}

// IODemand implements cluster.Client. Each create/write/close/delete
// cycle is 4 metadata ops plus a one-byte write.
func (a *IOMetadata) IODemand(now float64) storage.Demand {
	if !a.Active(now) {
		return storage.Demand{}
	}
	ops := a.Rate * float64(a.NTasks)
	return storage.Demand{MetaOps: ops, Write: ops} // 1 byte per op
}

// IOGrant implements cluster.Client.
func (a *IOMetadata) IOGrant(g storage.Grant) { a.grant = g }

// ServedOps returns the metadata ops/s achieved last tick.
func (a *IOMetadata) ServedOps() float64 { return a.grant.MetaOps }

// Advance implements node.Proc.
func (a *IOMetadata) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	return node.Usage{CPUSeconds: g.CPUShare * dt}
}

// IOBandwidth models the iobandwidth anomaly: dd-style copies of a file
// to another file, streaming reads and writes through the storage server.
type IOBandwidth struct {
	Window
	FileSize units.ByteSize // copied file size (sets the demand pattern)
	NTasks   int
	RatePer  float64 // offered bytes/s per task, default 50 MB/s
	grant    storage.Grant
	killed   bool
}

// NewIOBandwidth returns an iobandwidth instance with ntasks dd loops.
func NewIOBandwidth(fileSize units.ByteSize, ntasks int) *IOBandwidth {
	if ntasks <= 0 {
		ntasks = 1
	}
	return &IOBandwidth{FileSize: fileSize, NTasks: ntasks, RatePer: 50e6}
}

// Name implements node.Proc.
func (a *IOBandwidth) Name() string { return "iobandwidth" }

// Done implements node.Proc.
func (a *IOBandwidth) Done() bool { return a.killed }

// Demand implements node.Proc.
func (a *IOBandwidth) Demand(now float64) node.Demand {
	if !a.Active(now) {
		return node.Demand{}
	}
	return node.Demand{CPU: 0.05 * float64(a.NTasks), Resident: a.FileSize}
}

// IODemand implements cluster.Client. A dd copy reads and writes the
// same byte count.
func (a *IOBandwidth) IODemand(now float64) storage.Demand {
	if !a.Active(now) {
		return storage.Demand{}
	}
	per := a.RatePer
	if per <= 0 {
		per = 50e6
	}
	bw := per * float64(a.NTasks)
	return storage.Demand{Read: bw / 2, Write: bw / 2, MetaOps: float64(a.NTasks)}
}

// IOGrant implements cluster.Client.
func (a *IOBandwidth) IOGrant(g storage.Grant) { a.grant = g }

// ServedBW returns the read+write bytes/s achieved last tick.
func (a *IOBandwidth) ServedBW() float64 { return a.grant.Read + a.grant.Write }

// Advance implements node.Proc.
func (a *IOBandwidth) Advance(now, dt float64, g node.Grant) node.Usage {
	if g.OOMKilled {
		a.killed = true
	}
	if !a.Active(now) {
		a.killed = a.killed || a.Expired(now)
		return node.Usage{}
	}
	return node.Usage{CPUSeconds: g.CPUShare * dt}
}
