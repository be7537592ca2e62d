package node

import (
	"math"
	"testing"
	"testing/quick"

	"hpas/internal/units"
	"hpas/internal/xrand"
)

// stubProc is a configurable process recording the grants it receives.
type stubProc struct {
	name      string
	demand    Demand
	lastGrant Grant
	ticks     int
	done      bool
	killed    bool
}

func (s *stubProc) Name() string              { return s.name }
func (s *stubProc) Demand(now float64) Demand { return s.demand }
func (s *stubProc) Done() bool                { return s.done }

func (s *stubProc) Advance(now, dt float64, g Grant) Usage {
	s.lastGrant = g
	s.ticks++
	if g.OOMKilled {
		s.killed = true
		s.done = true
	}
	eff := g.EffIPS(s.demand.IPS, s.demand.APKI) * g.CPUShare // not used for correctness
	_ = eff
	return Usage{
		Instructions: 1e6 * dt,
		CPUSeconds:   g.CPUShare * dt,
		L2Misses:     10 * dt,
		L3Misses:     5 * dt,
		MemBytes:     100 * dt,
	}
}

func (s *stubProc) last() Grant { return s.lastGrant }

func busyProc(name string) *stubProc {
	return &stubProc{name: name, demand: Demand{CPU: 1}}
}

func newTestNode() *Node {
	return New(0, Voltrino(), xrand.New(1))
}

func TestSpecGeometry(t *testing.T) {
	s := Voltrino()
	if s.Threads() != 64 || s.PhysCores() != 32 {
		t.Fatalf("threads=%d cores=%d", s.Threads(), s.PhysCores())
	}
	if s.CoreOf(0) != 0 || s.CoreOf(32) != 0 || s.CoreOf(33) != 1 {
		t.Error("CoreOf wrong")
	}
	if s.SocketOf(0) != 0 || s.SocketOf(16) != 1 || s.SocketOf(48) != 1 {
		t.Error("SocketOf wrong")
	}
	if s.Sibling(0) != 32 || s.Sibling(32) != 0 || s.Sibling(5) != 37 {
		t.Error("Sibling wrong")
	}
}

func TestSiblingWithoutSMT(t *testing.T) {
	s := Voltrino()
	s.ThreadsPerCore = 1
	if s.Sibling(3) != 3 {
		t.Error("Sibling without SMT should be identity")
	}
}

func TestPlaceRemove(t *testing.T) {
	n := newTestNode()
	a, b := busyProc("a"), busyProc("b")
	n.Place(a, 0)
	n.Place(b, -1) // auto: least loaded
	if n.NumProcs() != 2 {
		t.Fatal("NumProcs != 2")
	}
	if n.CPUOf(a) != 0 {
		t.Error("a not on cpu 0")
	}
	if cpu := n.CPUOf(b); cpu == 0 {
		t.Error("auto-placement chose the busy cpu")
	}
	n.Remove(a)
	if n.NumProcs() != 1 || n.CPUOf(a) != -1 {
		t.Error("Remove failed")
	}
	if tail := n.procs[:2][1]; tail != nil {
		t.Error("Remove left the vacated slot pointing at a placement; the removed proc cannot be collected")
	}
	n.Remove(a) // no-op
}

func TestPlacePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newTestNode().Place(busyProc("x"), 1000)
}

func TestCPUFairShare(t *testing.T) {
	n := newTestNode()
	a, b := busyProc("a"), busyProc("b")
	n.Place(a, 0)
	n.Place(b, 0) // same logical CPU
	n.Tick(0, 0.1)
	if g := a.last(); math.Abs(g.CPUShare-0.5) > 1e-9 {
		t.Errorf("a share = %v, want 0.5", g.CPUShare)
	}
	if g := b.last(); math.Abs(g.CPUShare-0.5) > 1e-9 {
		t.Errorf("b share = %v, want 0.5", g.CPUShare)
	}
}

func TestCPUUndersubscribed(t *testing.T) {
	n := newTestNode()
	a := &stubProc{name: "a", demand: Demand{CPU: 0.3}}
	b := &stubProc{name: "b", demand: Demand{CPU: 0.4}}
	n.Place(a, 0)
	n.Place(b, 0)
	n.Tick(0, 0.1)
	if a.last().CPUShare != 0.3 || b.last().CPUShare != 0.4 {
		t.Error("undersubscribed thread should grant full demand")
	}
}

func TestSMTPenalty(t *testing.T) {
	n := newTestNode()
	a, b := busyProc("a"), busyProc("b")
	n.Place(a, 0)
	n.Place(b, 32) // SMT sibling of cpu 0
	n.Tick(0, 0.1)
	if g := a.last(); g.SMT != n.Spec.SMTFactor {
		t.Errorf("a SMT = %v, want %v", g.SMT, n.Spec.SMTFactor)
	}
	if g := a.last(); math.Abs(g.CPUShare-1) > 1e-9 {
		t.Error("a should still get its full thread")
	}
	// Idle sibling → no penalty.
	n2 := newTestNode()
	c := busyProc("c")
	n2.Place(c, 0)
	n2.Tick(0, 0.1)
	if c.last().SMT != 1 {
		t.Error("no sibling: SMT factor should be 1")
	}
}

func TestCacheCoverageAlone(t *testing.T) {
	n := newTestNode()
	a := &stubProc{name: "a", demand: Demand{CPU: 1, WorkingSet: 16 * units.KiB, APKI: 100}}
	n.Place(a, 0)
	n.Tick(0, 0.1)
	g := a.last()
	if g.CovL1 != 1 || g.CovL2 != 1 || g.CovL3 != 1 {
		t.Errorf("small WS should fully fit: %+v", g)
	}
}

func TestCacheCoverageL3Contention(t *testing.T) {
	// Two procs on different cores of socket 0 each want the full L3.
	n := newTestNode()
	ws := n.Spec.L3
	a := &stubProc{name: "a", demand: Demand{CPU: 1, WorkingSet: ws, APKI: 100}}
	b := &stubProc{name: "b", demand: Demand{CPU: 1, WorkingSet: ws, APKI: 100}}
	n.Place(a, 0)
	n.Place(b, 1)
	n.Tick(0, 0.1)
	g := a.last()
	if math.Abs(g.CovL3-0.5) > 1e-9 {
		t.Errorf("CovL3 = %v, want 0.5", g.CovL3)
	}
	if g.CovL1 > g.CovL2 || g.CovL2 > g.CovL3 {
		t.Errorf("coverage not monotone: %+v", g)
	}
}

func TestCacheDifferentSocketsIsolated(t *testing.T) {
	n := newTestNode()
	ws := n.Spec.L3
	a := &stubProc{name: "a", demand: Demand{CPU: 1, WorkingSet: ws, APKI: 100}}
	b := &stubProc{name: "b", demand: Demand{CPU: 1, WorkingSet: ws, APKI: 100}}
	n.Place(a, 0)
	n.Place(b, 16) // socket 1
	n.Tick(0, 0.1)
	if g := a.last(); g.CovL3 != 1 {
		t.Errorf("cross-socket contention leaked: CovL3 = %v", g.CovL3)
	}
}

func TestZeroWorkingSetFullCoverage(t *testing.T) {
	n := newTestNode()
	a := busyProc("a")
	n.Place(a, 0)
	n.Tick(0, 0.1)
	if g := a.last(); g.CovL3 != 1 {
		t.Error("zero working set should be fully covered")
	}
}

func TestMemBWThrottle(t *testing.T) {
	n := newTestNode()
	capBW := float64(n.Spec.MemBWPerSocket)
	a := &stubProc{name: "a", demand: Demand{CPU: 1, StreamBW: capBW}}
	b := &stubProc{name: "b", demand: Demand{CPU: 1, StreamBW: capBW}}
	n.Place(a, 0)
	n.Place(b, 1)
	n.Tick(0, 0.1)
	if g := a.last(); math.Abs(g.BWFrac-0.5) > 1e-6 {
		t.Errorf("BWFrac = %v, want 0.5", g.BWFrac)
	}
	// Undersubscribed: full grant.
	n2 := newTestNode()
	c := &stubProc{name: "c", demand: Demand{CPU: 1, StreamBW: capBW / 4}}
	n2.Place(c, 0)
	n2.Tick(0, 0.1)
	if c.last().BWFrac != 1 {
		t.Error("undersubscribed bandwidth should be fully granted")
	}
}

func TestMemBWSocketsIndependent(t *testing.T) {
	n := newTestNode()
	capBW := float64(n.Spec.MemBWPerSocket)
	a := &stubProc{name: "a", demand: Demand{CPU: 1, StreamBW: capBW * 2}}
	b := &stubProc{name: "b", demand: Demand{CPU: 1, StreamBW: capBW / 8}}
	n.Place(a, 0)
	n.Place(b, 16) // other socket
	n.Tick(0, 0.1)
	if b.last().BWFrac != 1 {
		t.Error("socket 1 should be unaffected by socket 0 saturation")
	}
	if a.last().BWFrac >= 1 {
		t.Error("socket 0 should be throttled")
	}
}

func TestOOMKillsLargest(t *testing.T) {
	n := newTestNode()
	mem := n.Spec.Memory
	small := &stubProc{name: "small", demand: Demand{Resident: mem / 4}}
	big := &stubProc{name: "big", demand: Demand{Resident: mem}}
	n.Place(small, 0)
	n.Place(big, 1)
	n.Tick(0, 0.1)
	if !big.killed {
		t.Error("largest process not OOM-killed")
	}
	if small.killed {
		t.Error("small process wrongly killed")
	}
	if n.Counters().OOMKills != 1 {
		t.Errorf("OOMKills = %d", n.Counters().OOMKills)
	}
	// big is done and must be dropped.
	if n.NumProcs() != 1 {
		t.Errorf("NumProcs = %d after OOM", n.NumProcs())
	}
}

func TestCountersAccumulate(t *testing.T) {
	n := newTestNode()
	a := busyProc("a")
	n.Place(a, 0)
	for i := 0; i < 10; i++ {
		n.Tick(float64(i)*0.1, 0.1)
	}
	c := n.Counters()
	if math.Abs(c.UserSeconds-1.0) > 1e-9 {
		t.Errorf("UserSeconds = %v, want 1.0", c.UserSeconds)
	}
	if c.Instructions != 1e6 {
		t.Errorf("Instructions = %v", c.Instructions)
	}
	if c.SysSeconds <= 0 {
		t.Error("SysSeconds should accumulate OS noise")
	}
	if c.L2Misses <= 0 || c.L3Misses <= 0 || c.MemBytes <= 0 {
		t.Error("miss counters should accumulate")
	}
}

func TestMemUsedAndPageFaults(t *testing.T) {
	n := newTestNode()
	a := &stubProc{name: "a", demand: Demand{Resident: 1 * units.GiB}}
	n.Place(a, 0)
	n.Tick(0, 0.1)
	want := n.Spec.BaselineResident + 1*units.GiB
	if n.Counters().MemUsed != want {
		t.Errorf("MemUsed = %v, want %v", n.Counters().MemUsed, want)
	}
	pf := n.Counters().PageFaults
	if pf != float64(1*units.GiB)/4096 {
		t.Errorf("PageFaults = %v", pf)
	}
	// Growth adds more faults; steady state adds none.
	a.demand.Resident = 2 * units.GiB
	n.Tick(0.1, 0.1)
	pf2 := n.Counters().PageFaults
	if pf2 <= pf {
		t.Error("growth should add page faults")
	}
	n.Tick(0.2, 0.1)
	if n.Counters().PageFaults != pf2 {
		t.Error("steady state should not add page faults")
	}
	if n.MemFree() != n.Spec.Memory-n.Spec.BaselineResident-2*units.GiB {
		t.Errorf("MemFree = %v", n.MemFree())
	}
}

func TestDoneProcsRemoved(t *testing.T) {
	n := newTestNode()
	a := busyProc("a")
	n.Place(a, 0)
	n.Tick(0, 0.1)
	a.done = true
	n.Tick(0.1, 0.1)
	if n.NumProcs() != 0 {
		t.Error("done process not removed")
	}
	if tail := n.procs[:1][0]; tail != nil {
		t.Error("Tick left the vacated slot pointing at a placement; the finished proc cannot be collected")
	}
}

func TestGrantCPIOrdering(t *testing.T) {
	spec := Voltrino()
	hit := Grant{CPUShare: 1, SMT: 1, CovL1: 1, CovL2: 1, CovL3: 1, BWFrac: 1, spec: &spec}
	l3 := Grant{CPUShare: 1, SMT: 1, CovL1: 0, CovL2: 0, CovL3: 1, BWFrac: 1, spec: &spec}
	mem := Grant{CPUShare: 1, SMT: 1, CovL1: 0, CovL2: 0, CovL3: 0, BWFrac: 1, spec: &spec}
	memSlow := Grant{CPUShare: 1, SMT: 1, CovL1: 0, CovL2: 0, CovL3: 0, BWFrac: 0.25, spec: &spec}
	apki := 50.0
	if !(hit.CPI(apki) < l3.CPI(apki) && l3.CPI(apki) < mem.CPI(apki) && mem.CPI(apki) < memSlow.CPI(apki)) {
		t.Errorf("CPI ordering broken: %v %v %v %v",
			hit.CPI(apki), l3.CPI(apki), mem.CPI(apki), memSlow.CPI(apki))
	}
	if hit.CPI(apki) != 1 {
		t.Errorf("all-hit CPI = %v, want 1", hit.CPI(apki))
	}
	if hit.CPI(0) != 1 {
		t.Error("zero-APKI CPI should be 1")
	}
}

func TestGrantEffIPS(t *testing.T) {
	spec := Voltrino()
	g := Grant{CPUShare: 0.5, SMT: 1, CovL1: 1, CovL2: 1, CovL3: 1, BWFrac: 1, spec: &spec}
	if got := g.EffIPS(2e9, 10); math.Abs(got-1e9) > 1 {
		t.Errorf("EffIPS = %v, want 1e9", got)
	}
	// Zero IPS defaults to clock rate.
	if got := g.EffIPS(0, 0); math.Abs(got-spec.ClockHz/2) > 1 {
		t.Errorf("default EffIPS = %v", got)
	}
	// Grant without spec is a no-op model.
	var bare Grant
	if bare.CPI(100) != 1 {
		t.Error("bare Grant CPI should be 1")
	}
}

// Property: coverage fractions are valid and monotone for any placement.
func TestCoverageInvariantProperty(t *testing.T) {
	f := func(wsRaw [4]uint32, cpuRaw [4]uint8) bool {
		n := newTestNode()
		procs := make([]*stubProc, 4)
		for i := range procs {
			procs[i] = &stubProc{
				name: "p",
				demand: Demand{
					CPU:        1,
					WorkingSet: units.ByteSize(wsRaw[i]) * units.KiB,
					APKI:       50,
				},
			}
			n.Place(procs[i], int(cpuRaw[i])%n.Spec.Threads())
		}
		n.Tick(0, 0.1)
		for _, p := range procs {
			g := p.last()
			if g.CovL1 < 0 || g.CovL3 > 1 || g.CovL1 > g.CovL2 || g.CovL2 > g.CovL3 {
				return false
			}
			if g.CPUShare < 0 || g.CPUShare > 1 || g.BWFrac <= 0 || g.BWFrac > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNodeTick(b *testing.B) {
	n := newTestNode()
	for i := 0; i < 32; i++ {
		n.Place(&stubProc{name: "p", demand: Demand{CPU: 1, WorkingSet: units.MiB, APKI: 20}}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Tick(float64(i)*0.1, 0.1)
	}
}

// Property: granted CPU shares on any logical CPU never exceed 1, and
// granted socket bandwidth never exceeds the socket ceiling.
func TestConservationProperty(t *testing.T) {
	f := func(cpuRaw [6]uint8, demRaw [6]uint8) bool {
		n := newTestNode()
		procs := make([]*stubProc, 6)
		for i := range procs {
			procs[i] = &stubProc{
				name: "p",
				demand: Demand{
					CPU:      float64(demRaw[i]%101) / 100,
					StreamBW: float64(demRaw[i]) * 5e8,
				},
			}
			n.Place(procs[i], int(cpuRaw[i])%n.Spec.Threads())
		}
		n.Tick(0, 0.1)
		// Per-thread share conservation.
		threadShare := make(map[int]float64)
		for _, p := range procs {
			threadShare[n.CPUOf(p)] += p.lastGrant.CPUShare
		}
		for _, s := range threadShare {
			if s > 1+1e-9 {
				return false
			}
		}
		// Socket bandwidth conservation: sum of granted stream traffic.
		sockBW := make(map[int]float64)
		for _, p := range procs {
			g := p.lastGrant
			sockBW[n.Spec.SocketOf(n.CPUOf(p))] += p.demand.StreamBW * g.BWFrac * g.CPUEff()
		}
		for _, bw := range sockBW {
			if bw > float64(n.Spec.MemBWPerSocket)*(1+1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
