package monitor

import (
	"math"
	"sort"
	"testing"

	"hpas/internal/cluster"
	"hpas/internal/node"
	"hpas/internal/sim"
)

// busy is a stub process burning a configurable CPU fraction.
type busy struct {
	cpu float64
	res int64
}

func (b *busy) Name() string { return "busy" }
func (b *busy) Done() bool   { return false }
func (b *busy) Demand(now float64) node.Demand {
	return node.Demand{CPU: b.cpu, Resident: node.Voltrino().Memory * 0 /* none */}
}
func (b *busy) Advance(now, dt float64, g node.Grant) node.Usage {
	return node.Usage{
		CPUSeconds:   g.CPUShare * dt,
		Instructions: g.EffIPS(0, 0) * dt,
		L2Misses:     100 * dt,
		L3Misses:     50 * dt,
	}
}

func newRig(noise float64) (*cluster.Cluster, *Monitor, *sim.Engine) {
	c := cluster.New(cluster.Voltrino(2))
	m := New(c, 1.0, noise, 7)
	e := sim.New(0.1)
	e.Add(c)
	e.Add(m)
	return c, m, e
}

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := cluster.New(cluster.Voltrino(1))
	New(c, 0, 0, 1)
}

func TestSamplesAtOneHz(t *testing.T) {
	c, m, e := newRig(0)
	c.Place(&busy{cpu: 1}, 0, 0)
	e.RunFor(10)
	set := m.NodeSet(0)
	for _, name := range Names() {
		s := set.Get(name)
		if s == nil {
			t.Fatalf("missing metric %s", name)
		}
		if s.Len() != 10 {
			t.Errorf("%s has %d samples, want 10", name, s.Len())
		}
	}
}

func TestUserCPUMetric(t *testing.T) {
	c, m, e := newRig(0)
	c.Place(&busy{cpu: 0.6}, 0, 0)
	e.RunFor(5)
	user := m.NodeSet(0).Get(MetricUser)
	if math.Abs(user.Mean()-60) > 1 {
		t.Errorf("user = %v, want ~60", user.Mean())
	}
	// Idle node should be near zero user.
	idleUser := m.NodeSet(1).Get(MetricUser)
	if idleUser.Mean() > 1 {
		t.Errorf("idle node user = %v", idleUser.Mean())
	}
	// Sys reflects OS noise: positive but small.
	sys := m.NodeSet(0).Get(MetricSys)
	if sys.Mean() <= 0 || sys.Mean() > 10 {
		t.Errorf("sys = %v", sys.Mean())
	}
	idle := m.NodeSet(0).Get(MetricIdle)
	want := float64(c.Node(0).Spec.Threads())*100 - 60
	if math.Abs(idle.Mean()-want) > 5 {
		t.Errorf("idle = %v, want ~%v", idle.Mean(), want)
	}
}

func TestMemAndCounterMetrics(t *testing.T) {
	c, m, e := newRig(0)
	c.Place(&busy{cpu: 1}, 0, 0)
	e.RunFor(3)
	set := m.NodeSet(0)
	free := set.Get(MetricMemFree).Mean()
	used := set.Get(MetricMemUsed).Mean()
	total := float64(c.Node(0).Spec.Memory)
	if math.Abs(free+used-total) > total*0.001 {
		t.Errorf("free+used = %v, total %v", free+used, total)
	}
	if set.Get(MetricInst).Mean() <= 0 {
		t.Error("instruction rate should be positive")
	}
	if set.Get(MetricL2Miss).Mean() <= 0 || set.Get(MetricL3Miss).Mean() <= 0 {
		t.Error("miss rates should be positive")
	}
}

func TestNoiseApplied(t *testing.T) {
	_, m1, e1 := newRig(0)
	e1.RunFor(5)
	_, m2, e2 := newRig(0.05)
	e2.RunFor(5)
	// Noiseless idle user is identical every second only when the OS
	// noise differs; compare the MemUsed metric, which is constant.
	clean := m1.NodeSet(0).Get(MetricMemUsed).Values
	noisy := m2.NodeSet(0).Get(MetricMemUsed).Values
	varClean, varNoisy := variance(clean), variance(noisy)
	if varClean != 0 {
		t.Errorf("clean MemUsed should be constant, var = %v", varClean)
	}
	if varNoisy == 0 {
		t.Error("noisy MemUsed should vary")
	}
}

func variance(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs))
}

func TestZeroStaysZero(t *testing.T) {
	_, m, e := newRig(0.05)
	e.RunFor(3)
	// No network traffic: NIC metric must be exactly zero despite noise.
	flits := m.NodeSet(0).Get(MetricNICFlits)
	for _, v := range flits.Values {
		if v != 0 {
			t.Fatalf("NIC flits = %v on idle network", v)
		}
	}
}

func TestDeterministicSampling(t *testing.T) {
	run := func() []float64 {
		c, m, e := newRig(0.02)
		c.Place(&busy{cpu: 1}, 0, 0)
		e.RunFor(5)
		return m.NodeSet(0).Get(MetricUser).Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

// The tap sees, for every node and sampling period, exactly the values
// an untapped twin monitor (same cluster, same seed) records in that
// node's trace, under sorted names; the tapped monitor keeps no trace.
func TestTapDeliversJustAppendedSample(t *testing.T) {
	rig := func(memBW bool, tap TapFunc) *Monitor {
		c := cluster.New(cluster.Voltrino(2))
		m := NewWithOptions(c, 1.0, 0.02, 7, Options{IncludeMemBW: memBW, Tap: tap})
		e := sim.New(0.1)
		e.Add(c)
		e.Add(m)
		c.Place(&busy{cpu: 1}, 0, 0)
		c.Place(&busy{cpu: 0.3}, 1, 2)
		e.RunFor(6)
		return m
	}
	for _, memBW := range []bool{false, true} {
		twin := rig(memBW, nil)
		delivered := 0
		var prev []float64 // the previous delivery's Values slice
		tap := func(s Sample) {
			delivered++
			if !sort.StringsAreSorted(s.Names) {
				t.Fatalf("memBW=%v: tap names not sorted: %v", memBW, s.Names)
			}
			want := len(Names())
			if memBW {
				want++
			}
			if len(s.Names) != want || len(s.Values) != want {
				t.Fatalf("memBW=%v: %d names / %d values, want %d", memBW, len(s.Names), len(s.Values), want)
			}
			if s.Period != 1 {
				t.Errorf("period = %v", s.Period)
			}
			for j, name := range s.Names {
				series := twin.NodeSet(s.Node).Get(name)
				if series == nil {
					t.Fatalf("memBW=%v: tap names %q, which node %d does not collect", memBW, name, s.Node)
				}
				if got, want := s.Values[j], series.Values[int(s.Time)-1]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("node %d %s at t=%v: tap %v, twin trace %v", s.Node, name, s.Time, got, want)
				}
			}
			// The lifetime rule on Sample: one buffer serves every delivery.
			if prev != nil && &prev[0] != &s.Values[0] {
				t.Errorf("memBW=%v: tap values moved between deliveries; the monitor should reuse one buffer", memBW)
			}
			prev = s.Values
		}
		m := rig(memBW, tap)
		if delivered != 2*6 {
			t.Errorf("memBW=%v: tap saw %d samples, want %d", memBW, delivered, 2*6)
		}
		if m.Samples() != 6 || twin.Samples() != 6 {
			t.Errorf("memBW=%v: monitors took %d and %d samples, want 6", memBW, m.Samples(), twin.Samples())
		}
		if set := m.NodeSet(0); set != nil {
			t.Errorf("memBW=%v: a tapped monitor kept a trace of %d series", memBW, set.Len())
		}
	}
}
