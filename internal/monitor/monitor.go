// Package monitor emulates the Lightweight Distributed Metric Service
// (LDMS) used on the paper's test system: once per sampling period it
// reads each node's counters and appends one value per metric to a
// per-node trace.Set — or, when a tap is set, delivers the sample to the
// tap and keeps nothing.
//
// Metric names follow the paper's "metric::sampler" convention (e.g.
// "user::procstat"). The metric set deliberately contains no direct
// memory-bandwidth counter — the paper identifies that gap as the reason
// cpuoccupy/membw/cachecopy are partially confused by the diagnosis
// framework, and the reproduction preserves it.
package monitor

import (
	"slices"
	"sort"

	"hpas/internal/cluster"
	"hpas/internal/node"
	"hpas/internal/sim"
	"hpas/internal/trace"
	"hpas/internal/xrand"
)

// Metric names emitted for every node.
const (
	MetricUser     = "user::procstat"                                        // user CPU, percent of one CPU
	MetricSys      = "sys::procstat"                                         // system CPU, percent of one CPU
	MetricIdle     = "idle::procstat"                                        // idle, percent of one CPU
	MetricMemFree  = "MemFree::meminfo"                                      // bytes
	MetricMemUsed  = "MemUsed::meminfo"                                      // bytes
	MetricPgFault  = "pgfault::vmstat"                                       // faults/s
	MetricInst     = "INST_RETIRED:ANY::spapiHASW"                           // instructions/s
	MetricL2Miss   = "L2_RQSTS:MISS::spapiHASW"                              // misses/s
	MetricL3Miss   = "L3_MISS::spapiHASW"                                    // misses/s
	MetricNICFlits = "AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS::aries_nic_mmr" // flits/s

	// MetricMemBW is the uncore memory-channel counter (CAS events/s,
	// one per 64-byte line). It is NOT collected by default: the paper
	// attributes the cpuoccupy/membw/cachecopy confusion to the lack of
	// a memory-bandwidth metric, and the ablation experiment re-enables
	// this counter to test that hypothesis.
	MetricMemBW = "UNC_M_CAS_COUNT:ALL::spapiIMC"
)

// Names returns all per-node metric names in deterministic order.
func Names() []string {
	return []string{
		MetricUser, MetricSys, MetricIdle,
		MetricMemFree, MetricMemUsed, MetricPgFault,
		MetricInst, MetricL2Miss, MetricL3Miss,
		MetricNICFlits,
	}
}

// flitBytes is the payload carried per Aries request flit.
const flitBytes = 16

// Sample is one monitoring observation of one node, delivered to stream
// taps as it is taken. Names is shared across deliveries and sorted (the
// same order internal/features processes a trace.Set in); callers must
// not mutate it. Values is aligned with Names and is the monitor's own
// buffer, overwritten by the next sample: it is valid for the duration
// of the tap call only, and a tap that keeps a sample's values copies
// them (internal/stream's pipeline copies into its rings).
type Sample struct {
	Node   int
	Time   float64 // simulation time of the sample, seconds
	Period float64 // sampling period, seconds
	Names  []string
	Values []float64
}

// TapFunc observes samples as the monitor takes them. It runs on the
// simulation goroutine: keep it fast and hand off heavy work — after
// copying Sample.Values, which the monitor reuses once the call returns.
type TapFunc func(Sample)

// Options configure optional monitor behaviour.
type Options struct {
	// IncludeMemBW adds the uncore memory-bandwidth counter to the
	// collected metric set (off by default, matching the paper).
	IncludeMemBW bool
	// Tap, when non-nil, receives every sample as it is taken, enabling
	// online consumers. A tapped monitor keeps no trace: the tap is the
	// only consumer of its samples, and NodeSet returns nil.
	Tap TapFunc
}

// Monitor samples a cluster. Register it on the engine after the cluster
// so samples observe post-step state.
type Monitor struct {
	cl     *cluster.Cluster
	period float64
	noise  float64
	opts   Options
	rng    *xrand.RNG

	nextSample float64
	samples    int               // sampling periods taken
	sets       []*trace.Set      // nil when tapped
	series     [][]*trace.Series // series[i]: node i's series in collection order (Names, then MemBW); nil when tapped
	prev       []node.Counters

	// Tap delivery, resolved once: sorted names shared by every sample,
	// where each sits in collection order, and the one values buffer.
	tapNames []string
	tapOrder []int
	tapVals  []float64
}

// New returns a monitor sampling every period seconds with multiplicative
// Gaussian noise of the given relative magnitude (e.g. 0.01 for 1%).
func New(cl *cluster.Cluster, period, noise float64, seed uint64) *Monitor {
	return NewWithOptions(cl, period, noise, seed, Options{})
}

// NewWithOptions is New with optional metric-set extensions.
func NewWithOptions(cl *cluster.Cluster, period, noise float64, seed uint64, opts Options) *Monitor {
	if period <= 0 {
		panic("monitor: non-positive period")
	}
	m := &Monitor{
		cl:     cl,
		period: period,
		noise:  noise,
		opts:   opts,
		rng:    xrand.New(seed),
		prev:   make([]node.Counters, cl.NumNodes()),
	}
	names := Names()
	if opts.IncludeMemBW {
		names = append(names, MetricMemBW)
	}
	for i := 0; i < cl.NumNodes(); i++ {
		m.prev[i] = cl.Node(i).Counters()
	}
	if opts.Tap != nil {
		m.tapNames = append([]string(nil), names...)
		sort.Strings(m.tapNames)
		for _, name := range m.tapNames {
			m.tapOrder = append(m.tapOrder, slices.Index(names, name))
		}
		m.tapVals = make([]float64, len(names))
	} else {
		for i := 0; i < cl.NumNodes(); i++ {
			set := trace.NewSet()
			series := make([]*trace.Series, len(names))
			for k, name := range names {
				series[k] = trace.NewSeries(name, period)
				set.Add(series[k])
			}
			m.sets = append(m.sets, set)
			m.series = append(m.series, series)
		}
	}
	m.nextSample = period
	return m
}

// NodeSet returns the metric set collected from node i, or nil when the
// monitor is tapped and keeps no trace.
func (m *Monitor) NodeSet(i int) *trace.Set {
	if m.sets == nil {
		return nil
	}
	return m.sets[i]
}

// Samples returns how many sampling periods the monitor has taken: the
// length of every node's series, tapped or not.
func (m *Monitor) Samples() int { return m.samples }

// Tick implements sim.Ticker.
func (m *Monitor) Tick(now, dt float64) {
	if now+dt+1e-9 < m.nextSample {
		return
	}
	t := m.nextSample
	m.nextSample += m.period
	m.samples++
	for i := 0; i < m.cl.NumNodes(); i++ {
		m.sample(i)
		if m.opts.Tap != nil {
			m.opts.Tap(Sample{Node: i, Time: t, Period: m.period, Names: m.tapNames, Values: m.tapVals})
		}
	}
}

// sample takes node i's sample: appended to its series, or, on a
// tapped monitor, put in the tap buffer in sorted-name order.
func (m *Monitor) sample(i int) {
	n := m.cl.Node(i)
	cur := n.Counters()
	prev := m.prev[i]
	m.prev[i] = cur
	p := m.period

	user := (cur.UserSeconds - prev.UserSeconds) / p * 100
	sys := (cur.SysSeconds - prev.SysSeconds) / p * 100
	idle := float64(n.Spec.Threads())*100 - user - sys

	// In collection order: Names, then MemBW, which only a monitor
	// collecting it takes.
	values := [...]float64{
		user,
		sys,
		idle,
		float64(n.MemFree()),
		float64(cur.MemUsed),
		(cur.PageFaults - prev.PageFaults) / p,
		(cur.Instructions - prev.Instructions) / p,
		(cur.L2Misses - prev.L2Misses) / p,
		(cur.L3Misses - prev.L3Misses) / p,
		m.cl.Net().InjectedRate(i) / flitBytes,
		(cur.MemBytes - prev.MemBytes) / p / node.CacheLine,
	}
	if m.opts.Tap == nil {
		for k, s := range m.series[i] {
			s.Append(m.jitter(values[k]))
		}
		return
	}
	// Noise is drawn in collection order either way, so a tapped run
	// delivers bit for bit what an untapped one records.
	for k := range m.tapVals {
		values[k] = m.jitter(values[k])
	}
	for j, k := range m.tapOrder {
		m.tapVals[j] = values[k]
	}
}

// jitter applies multiplicative noise to one value (values of exactly
// zero stay zero, as real counters would).
func (m *Monitor) jitter(v float64) float64 {
	if v != 0 && m.noise > 0 {
		v *= m.rng.Jitter(m.noise)
	}
	return v
}

var _ sim.Ticker = (*Monitor)(nil)
