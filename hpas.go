// Package hpas is a Go reproduction of HPAS, the HPC Performance Anomaly
// Suite (Ates et al., ICPP 2019): eight configurable anomaly generators
// for the major subsystems of an HPC machine — CPU, cache hierarchy,
// memory, high-speed network, and shared storage — together with
// everything needed to reproduce the paper's evaluation offline.
//
// The package exposes three layers:
//
//   - Host stressors (Stress* types): real userspace load generators,
//     direct ports of the original C tools, runnable via cmd/hpas.
//
//   - A deterministic cluster simulator (NewCluster, Run, Inject): a
//     Cray-XC40m-like machine model — nodes with SMT cores, a three-level
//     cache hierarchy, memory-bandwidth ceilings and an OOM killer; an
//     Aries-like adaptively-routed network; a shared filesystem; and an
//     LDMS-like monitor — on which the eight anomalies are modelled as
//     contention sources and the paper's proxy applications run as
//     bulk-synchronous jobs.
//
//   - The evaluation harness (Experiments, GenerateDataset, ml types):
//     regenerates every table and figure of the paper, including the
//     machine-learning diagnosis use case with from-scratch decision
//     trees, random forests, and AdaBoost.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package hpas

import (
	"context"
	"io"

	"hpas/internal/anomaly"
	"hpas/internal/apps"
	"hpas/internal/cluster"
	"hpas/internal/core"
	"hpas/internal/diagnose"
	"hpas/internal/experiments"
	"hpas/internal/lb"
	"hpas/internal/ml"
	"hpas/internal/sched"
	"hpas/internal/stream"
	"hpas/internal/stream/journal"
	"hpas/internal/stress"
	"hpas/internal/units"
	"hpas/internal/variability"
)

// Byte sizes for knob configuration.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
)

// ByteSize is a byte quantity (see ParseByteSize).
type ByteSize = units.ByteSize

// ParseByteSize parses strings such as "35MB" or "1.5GiB".
func ParseByteSize(s string) (ByteSize, error) { return units.ParseByteSize(s) }

// AnomalyInfo describes one Table 1 anomaly generator.
type AnomalyInfo = anomaly.Info

// Catalog returns the paper's Table 1: all eight anomaly generators with
// their behaviours and knobs.
func Catalog() []AnomalyInfo { return anomaly.Catalog() }

// AnomalyNames returns the generator names in Table 1 order.
func AnomalyNames() []string { return anomaly.Names() }

// Cache levels for the cachecopy anomaly.
const (
	L1 = anomaly.L1
	L2 = anomaly.L2
	L3 = anomaly.L3
)

// Simulation layer.
type (
	// Cluster is a simulated HPC machine.
	Cluster = cluster.Cluster
	// ClusterConfig describes a machine to simulate.
	ClusterConfig = cluster.Config
	// Spec declares one anomaly injection (generator name + knobs).
	Spec = core.Spec
	// RunConfig describes one monitored experiment run.
	RunConfig = core.RunConfig
	// RunResult is the outcome of Run.
	RunResult = core.RunResult
)

// VoltrinoConfig returns a cluster resembling the paper's Cray XC40m
// Haswell partition with the given number of nodes.
func VoltrinoConfig(nodes int) ClusterConfig { return cluster.Voltrino(nodes) }

// ChameleonConfig returns a cluster resembling the Chameleon Cloud
// testbed (star network, NFS share).
func ChameleonConfig(nodes int) ClusterConfig { return cluster.ChameleonCloud(nodes) }

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// Inject places an anomaly described by spec onto the cluster.
func Inject(c *Cluster, s Spec) error {
	_, err := core.Inject(c, s)
	return err
}

// Run executes one monitored experiment (cluster + optional application
// + anomaly injections) and returns its result.
func Run(cfg RunConfig) (*RunResult, error) { return core.Run(cfg) }

// RunContext is Run with cancellation: the context is checked every
// simulation tick, so long runs abort promptly.
func RunContext(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	return core.RunContext(ctx, cfg)
}

// AppNames returns the Table 2 proxy application names.
func AppNames() []string {
	return appNames()
}

// Diagnosis / machine-learning layer.
type (
	// Dataset is a labelled feature matrix.
	Dataset = ml.Dataset
	// Classifier is a trainable multi-class model.
	Classifier = ml.Classifier
	// Confusion is a confusion matrix with F1 helpers.
	Confusion = ml.Confusion
	// DatasetConfig controls labelled-data generation.
	DatasetConfig = core.DatasetConfig
	// TreeOptions configures a CART decision tree.
	TreeOptions = ml.TreeOptions
	// ForestOptions configures a random forest.
	ForestOptions = ml.ForestOptions
	// AdaBoostOptions configures SAMME AdaBoost.
	AdaBoostOptions = ml.AdaBoostOptions
)

// DiagnosisClasses returns the six labels of the diagnosis use case.
func DiagnosisClasses() []string { return core.DiagnosisClasses() }

// GenerateDataset produces the labelled feature matrix of the diagnosis
// experiment (Figures 9 and 10).
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return core.GenerateDataset(cfg) }

// GenerateDatasetContext is GenerateDataset with cancellation across
// the (app, class, rep) grid.
func GenerateDatasetContext(ctx context.Context, cfg DatasetConfig) (*Dataset, error) {
	return core.GenerateDatasetContext(ctx, cfg)
}

// NewTree returns an untrained CART decision tree.
func NewTree(opts TreeOptions) Classifier { return ml.NewTree(opts) }

// NewForest returns an untrained random forest.
func NewForest(opts ForestOptions) Classifier { return ml.NewForest(opts) }

// NewAdaBoost returns an untrained AdaBoost classifier.
func NewAdaBoost(opts AdaBoostOptions) Classifier { return ml.NewAdaBoost(opts) }

// CrossValidate runs stratified k-fold cross-validation and returns the
// merged confusion matrix.
func CrossValidate(mk func() Classifier, ds *Dataset, k int, seed uint64) (*Confusion, error) {
	res, err := ml.CrossValidate(mk, ds, k, seed)
	if err != nil {
		return nil, err
	}
	return res.Confusion, nil
}

// Scheduling and load-balancing layer (use cases 5.2 and 5.3).
type (
	// NodeState is a scheduler's monitoring view of one node.
	NodeState = sched.NodeState
	// SchedPolicy selects nodes for a job.
	SchedPolicy = sched.Policy
	// RoundRobin is label-order allocation.
	RoundRobin = sched.RoundRobin
	// WBAS is the Well-Balanced Allocation Strategy.
	WBAS = sched.WBAS
	// Balancer assigns object loads to PEs.
	Balancer = lb.Balancer
	// LBObjOnly deals objects blindly.
	LBObjOnly = lb.LBObjOnly
	// GreedyRefineLB balances by measured PE capacity.
	GreedyRefineLB = lb.GreedyRefineLB
)

// IterTime returns the BSP iteration time of an object assignment: the
// maximum over PEs of assigned load divided by capacity.
func IterTime(objects []float64, assignment []int, capacities []float64) float64 {
	return lb.IterTime(objects, assignment, capacities)
}

// CapacitiesUnderCPUOccupy models per-PE capacities on a node where
// cpuoccupy consumes util percent of one CPU in total.
func CapacitiesUnderCPUOccupy(pes int, util float64) []float64 {
	return lb.CapacitiesUnderCPUOccupy(pes, util)
}

// Host stressor layer: real anomalies for real machines.
type (
	// Stressor is a runnable host anomaly.
	Stressor = stress.Stressor
	// StressCPUOccupy burns a configurable share of CPUs.
	StressCPUOccupy = stress.CPUOccupy
	// StressCacheCopy thrashes a chosen cache level.
	StressCacheCopy = stress.CacheCopy
	// StressMemBW saturates memory bandwidth.
	StressMemBW = stress.MemBW
	// StressMemEater holds and touches a large buffer.
	StressMemEater = stress.MemEater
	// StressMemLeak leaks memory at a configurable rate.
	StressMemLeak = stress.MemLeak
	// StressNetOccupy streams large messages to a peer.
	StressNetOccupy = stress.NetOccupy
	// StressNetOccupySink drains netoccupy traffic.
	StressNetOccupySink = stress.NetOccupySink
	// StressIOMetadata hammers filesystem metadata.
	StressIOMetadata = stress.IOMetadata
	// StressIOBandwidth streams file copies.
	StressIOBandwidth = stress.IOBandwidth
	// StressScheduled wraps a stressor with a start delay and duration,
	// the start/end window of Table 1.
	StressScheduled = stress.Scheduled
)

// Campaign composition: timed multi-anomaly variability patterns.
type (
	// Campaign composes timed anomaly phases on top of a base run.
	Campaign = core.Campaign
	// CampaignPhase is one timed injection step.
	CampaignPhase = core.Phase
	// CampaignResult is a campaign outcome with its phase timeline.
	CampaignResult = core.CampaignResult
)

// ParseCampaignPhases parses a compact campaign description such as
// "cpuoccupy@10-40:90,memleak@60-90" into timed phases targeting the
// given node/CPU.
func ParseCampaignPhases(s string, node, cpu int) ([]CampaignPhase, error) {
	return core.ParsePhases(s, node, cpu)
}

// Online diagnosis (the runtime phase of the paper's Section 5.1).
type (
	// Detector classifies sliding windows of monitoring data.
	Detector = diagnose.Detector
	// Prediction is one windowed diagnosis.
	Prediction = diagnose.Prediction
)

// TrainDetector fits a random forest on a labelled dataset and returns
// a sliding-window detector.
func TrainDetector(ds *Dataset, window float64, seed uint64) (*Detector, error) {
	return diagnose.Train(ds, window, seed)
}

// DiagnosisAccuracy scores windowed predictions against a ground-truth
// labeller (e.g. a campaign timeline's LabelAt).
func DiagnosisAccuracy(preds []Prediction, label func(t float64) string) float64 {
	return diagnose.Accuracy(preds, label)
}

// Streaming service layer (internal/stream, served by cmd/hpas-serve):
// campaigns run as long-lived jobs on a bounded worker pool, their
// monitor output classified online and summarized into anomaly events.
type (
	// StreamManager runs submitted jobs on a bounded worker pool.
	StreamManager = stream.Manager
	// StreamConfig sizes the worker pool and submission queue.
	StreamConfig = stream.Config
	// StreamJobSpec is one submission: a campaign plus its pipeline.
	StreamJobSpec = stream.JobSpec
	// StreamJob is a tracked submission with a followable live stream.
	// It holds the stream, not the simulation: to keep a run's metric
	// traces, call Run or Campaign.Run directly.
	StreamJob = stream.Job
	// StreamJobState is a job's lifecycle position.
	StreamJobState = stream.JobState
	// StreamPipelineConfig configures a job's detection pipeline.
	StreamPipelineConfig = stream.PipelineConfig
	// StreamMessage is one element of a job's output stream.
	StreamMessage = stream.Message
	// StreamFrame is one wire-encoded stream message (shared-frame
	// broadcast form: a sub-slice of the job's encoded log, one
	// encoding serving every follower).
	StreamFrame = stream.Frame
	// StreamWindow is one classified observation window.
	StreamWindow = stream.Window
	// StreamEvent is a coalesced anomaly (consecutive same-class windows).
	StreamEvent = stream.Event
	// StreamStats is the service's self-telemetry snapshot.
	StreamStats = stream.Stats
	// StreamStore persists job records for replay across restarts.
	StreamStore = stream.Store
	// StreamRecoveredJob is a job reconstructed from a StreamStore.
	StreamRecoveredJob = stream.RecoveredJob
	// StreamJournal is the append-only on-disk StreamStore.
	StreamJournal = journal.Journal
	// StreamJournalOptions tunes a StreamJournal (fsync batching).
	StreamJournalOptions = journal.Options
	// StreamResilientStore wraps a StreamStore with retry, a circuit
	// breaker that degrades to in-memory-only mode, and a background
	// re-attachment probe.
	StreamResilientStore = stream.ResilientStore
	// StreamResilienceOptions tunes NewResilientStreamStore.
	StreamResilienceOptions = stream.ResilienceOptions
	// StreamStoreHealth is a resilient store's self-report (degraded
	// flag, consecutive failures, retries, dropped writes).
	StreamStoreHealth = stream.StoreHealth
)

// Job lifecycle states: queued → running → done | failed | cancelled.
const (
	StreamJobQueued    = stream.JobQueued
	StreamJobRunning   = stream.JobRunning
	StreamJobDone      = stream.JobDone
	StreamJobFailed    = stream.JobFailed
	StreamJobCancelled = stream.JobCancelled
)

// ErrStreamQueueFull is returned by StreamManager.Submit when the
// pending-job queue is at capacity.
var ErrStreamQueueFull = stream.ErrQueueFull

// ErrStreamClosed is returned by StreamManager.Submit after Close
// (service shutdown).
var ErrStreamClosed = stream.ErrClosed

// ErrStreamInterrupted marks a recovered job whose previous process
// died mid-run; Reopen finalizes such jobs as failed with this error.
var ErrStreamInterrupted = stream.ErrInterrupted

// ErrStreamShardLost marks a job whose owning manager instance (shard)
// died mid-run; the shard router (internal/shard, cmd/hpas-router)
// finalizes such jobs as failed-by-shard-loss.
var ErrStreamShardLost = stream.ErrShardLost

// NewStreamManager starts a streaming job manager; Close it to release
// the worker pool. Configure StreamConfig.Store (e.g. a StreamJournal)
// and call Reopen with the store's recovered jobs to make job history
// durable across restarts.
func NewStreamManager(cfg StreamConfig) *StreamManager { return stream.NewManager(cfg) }

// OpenStreamJournal opens (creating if needed) an append-only on-disk
// job journal under dir, with default fsync batching. Use it as
// StreamConfig.Store and feed Recover's result to StreamManager.Reopen.
func OpenStreamJournal(dir string) (*StreamJournal, error) {
	return journal.Open(dir, journal.Options{})
}

// EncodeStreamRecords renders a job snapshot (StreamJob.EncodedSnapshot
// or Snapshot) as journal record lines — the wire format of
// shard-to-shard journal handoff. Lines carry no trailing newline;
// joined with '\n' they form a valid journal file body, and Replay'd at
// another shard they yield a byte-identical stream replay.
func EncodeStreamRecords(rj StreamRecoveredJob) ([][]byte, error) {
	return journal.EncodeRecords(rj)
}

// ReplayStreamRecords folds handoff record lines back into a
// StreamRecoveredJob (for StreamManager.Adopt), returning the number of
// complete records consumed; unlike disk recovery, a torn or corrupt
// line is an error so an interrupted transfer is re-fetched from that
// offset rather than adopted truncated.
func ReplayStreamRecords(r io.Reader) (StreamRecoveredJob, int, error) {
	return journal.Replay(r)
}

// NewResilientStreamStore wraps a StreamStore so a flaky or dead
// journal degrades durability instead of service: transient errors are
// retried with backoff, persistent failure trips a circuit breaker
// into in-memory-only mode, and a background probe re-attaches the
// store once it recovers. Closing the wrapper closes the inner store.
func NewResilientStreamStore(inner StreamStore, opts StreamResilienceOptions) *StreamResilientStore {
	return stream.NewResilientStore(inner, opts)
}

// Variability measurement (the paper's Section 2 motivation).
type (
	// VariabilityConfig describes a run-to-run variability measurement.
	VariabilityConfig = variability.Config
	// VariabilityResult is a measured runtime distribution.
	VariabilityResult = variability.Result
)

// MeasureVariability runs an application repeatedly next to randomly
// drawn anomalies and summarizes the runtime distribution.
func MeasureVariability(cfg VariabilityConfig) (*VariabilityResult, error) {
	return variability.Measure(cfg)
}

// Experiment regenerates one paper table or figure.
type Experiment = experiments.Experiment

// ExperimentResult is a rendered experiment outcome.
type ExperimentResult = experiments.Result

// Experiments returns every registered paper artifact in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns the experiment with the given ID (e.g. "fig8").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// appNames avoids importing internal/apps at the top for the single
// re-export (kept in a helper for clarity).
func appNames() []string { return apps.Names() }
