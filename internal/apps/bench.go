package apps

import (
	"hpas/internal/netsim"
	"hpas/internal/node"
	"hpas/internal/storage"
	"hpas/internal/units"
)

// Stream models the STREAM memory-bandwidth benchmark: a single rank
// issuing pure streaming traffic from one core. Its "Best Rate" is the
// highest sustained bandwidth observed, as STREAM reports.
type Stream struct {
	// DemandBW is the bandwidth one core can drive, bytes/s.
	DemandBW float64

	best float64
	sum  float64
	n    int
}

// NewStream returns a STREAM instance demanding the single-core triad
// bandwidth of the paper's Haswell nodes (~12.5 GB/s).
func NewStream() *Stream { return &Stream{DemandBW: 12.5e9} }

// Name implements node.Proc.
func (s *Stream) Name() string { return "STREAM" }

// Done implements node.Proc.
func (s *Stream) Done() bool { return false }

// Demand implements node.Proc. STREAM's arrays are sized to defeat the
// cache, so all traffic is streaming.
func (s *Stream) Demand(now float64) node.Demand {
	return node.Demand{
		CPU:        1,
		WorkingSet: 256 * units.KiB,
		APKI:       20,
		StreamBW:   s.DemandBW,
		Resident:   3 * units.GiB,
	}
}

// Advance implements node.Proc.
func (s *Stream) Advance(now, dt float64, g node.Grant) node.Usage {
	rate := s.DemandBW * g.BWFrac * g.CPUEff()
	if rate > s.best {
		s.best = rate
	}
	s.sum += rate
	s.n++
	return node.Usage{
		Instructions: g.EffIPS(0, 20) * dt,
		CPUSeconds:   g.CPUShare * dt,
		MemBytes:     rate * dt,
	}
}

// BestRate returns the highest sustained bandwidth in bytes/s.
func (s *Stream) BestRate() float64 { return s.best }

// MeanRate returns the average bandwidth in bytes/s.
func (s *Stream) MeanRate() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// OSU models the OSU point-to-point bandwidth benchmark between two
// nodes: back-to-back messages of a fixed size, where small messages are
// latency-bound and large ones bandwidth-bound.
type OSU struct {
	SrcNode, DstNode int
	MsgBytes         float64
	Latency          float64 // per-message software+wire latency, seconds
	PeakBW           float64 // the NIC's large-message ceiling, bytes/s

	flow  netsim.Flow
	flows [1]*netsim.Flow // what Flows returns: &flow, without a slice per tick
	sum   float64
	n     int
}

// NewOSU returns an OSU bandwidth test for the given message size.
func NewOSU(src, dst int, msgBytes float64) *OSU {
	return &OSU{SrcNode: src, DstNode: dst, MsgBytes: msgBytes, Latency: 12e-6, PeakBW: 9.6e9}
}

// offeredRate is the rate the benchmark can drive at this message size.
func (o *OSU) offeredRate() float64 {
	return o.MsgBytes / (o.Latency + o.MsgBytes/o.PeakBW)
}

// Name implements node.Proc.
func (o *OSU) Name() string { return "osu_bw" }

// Done implements node.Proc.
func (o *OSU) Done() bool { return false }

// Demand implements node.Proc.
func (o *OSU) Demand(now float64) node.Demand {
	return node.Demand{CPU: 0.5, WorkingSet: units.ByteSize(o.MsgBytes), APKI: 5, Resident: 64 * units.MiB}
}

// Flows implements cluster.FlowSource.
func (o *OSU) Flows(now float64) []*netsim.Flow {
	o.flow = netsim.Flow{Src: o.SrcNode, Dst: o.DstNode, Demand: o.offeredRate()}
	o.flows[0] = &o.flow
	return o.flows[:]
}

// Advance implements node.Proc.
func (o *OSU) Advance(now, dt float64, g node.Grant) node.Usage {
	o.sum += o.flow.Granted
	o.n++
	return node.Usage{
		Instructions: g.EffIPS(5e8, 5) * dt,
		CPUSeconds:   g.CPUShare * dt,
	}
}

// Bandwidth returns the mean achieved bandwidth in bytes/s.
func (o *OSU) Bandwidth() float64 {
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n)
}

// IORPhase selects which phase of the IOR benchmark is running.
type IORPhase int

// IOR phases, matching the write/access/read bars of the paper's Fig. 7.
const (
	IORWrite IORPhase = iota
	IORAccess
	IORRead
)

// IOR models the IOR parallel filesystem benchmark on one client node.
// Each phase offers a fixed demand to the shared filesystem and records
// what was served.
type IOR struct {
	Phase IORPhase
	// OfferBW is the data rate the client can drive, bytes/s.
	OfferBW float64
	// OfferOps is the metadata rate driven during the access phase.
	OfferOps float64

	grant storage.Grant
	sumBW float64
	sumOp float64
	n     int
}

// NewIOR returns an IOR client in the given phase.
func NewIOR(phase IORPhase) *IOR {
	return &IOR{Phase: phase, OfferBW: 400e6, OfferOps: 2000}
}

// Name implements node.Proc.
func (b *IOR) Name() string { return "IOR" }

// Done implements node.Proc.
func (b *IOR) Done() bool { return false }

// Demand implements node.Proc.
func (b *IOR) Demand(now float64) node.Demand {
	return node.Demand{CPU: 0.3, Resident: 256 * units.MiB}
}

// IODemand implements cluster.Client.
func (b *IOR) IODemand(now float64) storage.Demand {
	switch b.Phase {
	case IORWrite:
		return storage.Demand{Write: b.OfferBW, MetaOps: 5}
	case IORRead:
		return storage.Demand{Read: b.OfferBW, MetaOps: 5}
	default:
		return storage.Demand{MetaOps: b.OfferOps}
	}
}

// IOGrant implements cluster.Client.
func (b *IOR) IOGrant(g storage.Grant) {
	b.grant = g
	b.sumBW += g.Read + g.Write
	b.sumOp += g.MetaOps
	b.n++
}

// Advance implements node.Proc.
func (b *IOR) Advance(now, dt float64, g node.Grant) node.Usage {
	return node.Usage{CPUSeconds: g.CPUShare * dt}
}

// MeanBW returns the mean served data bandwidth in bytes/s.
func (b *IOR) MeanBW() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sumBW / float64(b.n)
}

// MeanOps returns the mean served metadata rate in ops/s.
func (b *IOR) MeanOps() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sumOp / float64(b.n)
}
