// Package monitor emulates the Lightweight Distributed Metric Service
// (LDMS) used on the paper's test system: once per sampling period it
// reads each node's counters and appends one value per metric to a
// per-node trace.Set.
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
	// Tap, when non-nil, receives every sample immediately after it is
	// appended to the per-node trace, enabling online consumers.
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
	sets       []*trace.Set
	series     [][]*trace.Series // series[i]: node i's series in collection order (Names, then MemBW)
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
		set := trace.NewSet()
		series := make([]*trace.Series, len(names))
		for k, name := range names {
			series[k] = trace.NewSeries(name, period)
			set.Add(series[k])
		}
		m.sets = append(m.sets, set)
		m.series = append(m.series, series)
		m.prev[i] = cl.Node(i).Counters()
	}
	if opts.Tap != nil {
		m.tapNames = append([]string(nil), names...)
		sort.Strings(m.tapNames)
		for _, name := range m.tapNames {
			m.tapOrder = append(m.tapOrder, slices.Index(names, name))
		}
		m.tapVals = make([]float64, len(names))
	}
	m.nextSample = period
	return m
}

// NodeSet returns the metric set collected from node i.
func (m *Monitor) NodeSet(i int) *trace.Set { return m.sets[i] }

// Tick implements sim.Ticker.
func (m *Monitor) Tick(now, dt float64) {
	if now+dt+1e-9 < m.nextSample {
		return
	}
	t := m.nextSample
	m.nextSample += m.period
	for i := 0; i < m.cl.NumNodes(); i++ {
		m.sample(i)
		if m.opts.Tap != nil {
			m.opts.Tap(m.tapSample(i, t))
		}
	}
}

// tapSample assembles the node's just-appended sample in sorted-name
// order for delivery to the stream tap, in the buffer every delivery
// shares.
func (m *Monitor) tapSample(i int, t float64) Sample {
	series := m.series[i]
	for j, k := range m.tapOrder {
		s := series[k]
		m.tapVals[j] = s.Values[len(s.Values)-1]
	}
	return Sample{Node: i, Time: t, Period: m.period, Names: m.tapNames, Values: m.tapVals}
}

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
	// collecting it has a series for.
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
	for k, s := range m.series[i] {
		m.append(s, values[k])
	}
}

// append adds a sample with multiplicative noise (values of exactly zero
// stay zero, as real counters would).
func (m *Monitor) append(s *trace.Series, v float64) {
	if v != 0 && m.noise > 0 {
		v *= m.rng.Jitter(m.noise)
	}
	s.Append(v)
}

var _ sim.Ticker = (*Monitor)(nil)
