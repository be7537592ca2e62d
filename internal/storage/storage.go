// Package storage models the shared filesystem of the simulated cluster:
// a metadata service with a finite operation rate and one or more storage
// servers whose disks degrade under concurrent streams.
//
// Two stock configurations mirror the paper's testbeds: a Lustre-like
// filesystem with a dedicated metadata server (Voltrino) and an NFS-like
// single-server share where metadata operations steal disk time from data
// streams (the Chameleon Cloud appliance used for Figure 7).
package storage

import "fmt"

// Config describes a shared filesystem.
type Config struct {
	Name string
	// MetaOpsPerSec is the metadata service capacity (creates, opens,
	// stats, unlinks per second).
	MetaOpsPerSec float64
	// DiskBW is the aggregate sequential bandwidth of the storage
	// server's disks, bytes/s.
	DiskBW float64
	// SeekPenalty controls degradation under n concurrent streams:
	// effective bandwidth = DiskBW / (1 + SeekPenalty*(n-1)). Spinning
	// disks have a large penalty; striped SSD arrays a small one.
	SeekPenalty float64
	// SharedMetaData is true when metadata operations are served by the
	// same disk as data (NFS with a single disk): each metadata op then
	// consumes MetaOpDiskCost seconds of disk time.
	SharedMetaData bool
	// MetaOpDiskCost is the disk time per metadata op when
	// SharedMetaData is set (a small seek+journal write).
	MetaOpDiskCost float64
}

// Lustre returns a filesystem resembling Voltrino's Lustre: a dedicated
// metadata server and striped storage targets.
func Lustre() Config {
	return Config{
		Name:          "lustre",
		MetaOpsPerSec: 25000,
		DiskBW:        4e9,
		SeekPenalty:   0.02,
	}
}

// NFS returns a filesystem resembling the Chameleon Cloud "NFS share"
// appliance: one server with a single 250 GB spinning disk (~120 MB/s
// sequential) serving both data and metadata with 24 service threads.
func NFS() Config {
	return Config{
		Name:           "nfs",
		MetaOpsPerSec:  6000,
		DiskBW:         120e6,
		SeekPenalty:    0.15,
		SharedMetaData: true,
		MetaOpDiskCost: 1e-4,
	}
}

// Demand is one client's offered filesystem load for a tick.
type Demand struct {
	MetaOps float64 // metadata ops/s offered
	Read    float64 // bytes/s offered
	Write   float64 // bytes/s offered
}

// Grant is the served fraction of a client's demand.
type Grant struct {
	MetaOps float64 // ops/s served
	Read    float64 // bytes/s served
	Write   float64 // bytes/s served
}

// Server is the shared filesystem service.
type Server struct {
	cfg Config

	// cumulative counters for monitoring
	metaOpsServed float64
	bytesRead     float64
	bytesWritten  float64

	grants []Grant // Resolve's return, reused across calls
}

// New returns a server with the given configuration. It panics on
// non-positive capacities.
func New(cfg Config) *Server {
	if cfg.MetaOpsPerSec <= 0 || cfg.DiskBW <= 0 {
		panic(fmt.Sprintf("storage: bad config %+v", cfg))
	}
	return &Server{cfg: cfg}
}

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

// Resolve serves the given demands for a dt-second tick and returns the
// per-client grants, in the same order. The returned slice is the
// server's own and valid until the next Resolve; a caller that keeps
// grants longer copies them.
//
// Metadata: offered ops are admitted proportionally up to the service
// rate. Data: the disk's effective bandwidth — reduced by stream
// concurrency and, for shared-metadata servers, by disk time consumed by
// metadata ops — is split proportionally to offered bytes.
func (s *Server) Resolve(demands []Demand, dt float64) []Grant {
	var totalMeta, totalData float64
	streams := 0
	for _, d := range demands {
		totalMeta += d.MetaOps
		totalData += d.Read + d.Write
		if d.Read+d.Write > 0 {
			streams++
		}
	}

	// Metadata admission. On a shared-disk server, data streams keep the
	// disk heads busy and depress the achievable metadata rate too.
	metaCap := s.cfg.MetaOpsPerSec
	if s.cfg.SharedMetaData && totalData > 0 {
		dataBusy := totalData / s.cfg.DiskBW
		if dataBusy > 1 {
			dataBusy = 1
		}
		metaCap *= 1 - 0.8*dataBusy
	}
	metaFrac := 1.0
	if totalMeta > metaCap {
		metaFrac = metaCap / totalMeta
	}
	servedMeta := totalMeta * metaFrac

	// Effective disk bandwidth.
	diskBW := s.cfg.DiskBW
	if streams > 1 {
		diskBW /= 1 + s.cfg.SeekPenalty*float64(streams-1)
	}
	if s.cfg.SharedMetaData && servedMeta > 0 {
		// Disk time fraction consumed by metadata ops.
		busy := servedMeta * s.cfg.MetaOpDiskCost
		if busy > 0.95 {
			busy = 0.95
		}
		diskBW *= 1 - busy
	}
	dataFrac := 1.0
	if totalData > diskBW {
		dataFrac = diskBW / totalData
	}

	grants := s.grants[:0]
	for _, d := range demands {
		g := Grant{
			MetaOps: d.MetaOps * metaFrac,
			Read:    d.Read * dataFrac,
			Write:   d.Write * dataFrac,
		}
		s.metaOpsServed += g.MetaOps * dt
		s.bytesRead += g.Read * dt
		s.bytesWritten += g.Write * dt
		grants = append(grants, g)
	}
	s.grants = grants
	return grants
}

// Counters returns cumulative served totals (ops, bytes read, bytes
// written) for monitoring.
func (s *Server) Counters() (metaOps, read, written float64) {
	return s.metaOpsServed, s.bytesRead, s.bytesWritten
}
