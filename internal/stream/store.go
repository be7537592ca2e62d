package stream

import (
	"errors"
	"time"
)

// Store persists job lifecycle records so a manager's history survives
// process restarts. The manager calls it inline from submission, worker,
// and cancellation paths, so implementations must be safe for concurrent
// use and should buffer writes (see internal/stream/journal for the
// on-disk implementation). A nil Store in Config keeps the manager fully
// in-memory at zero cost.
//
// Store errors never fail the job they concern — a broken journal
// degrades durability, not service. The manager counts them in
// Stats.JournalErrors instead.
type Store interface {
	// Create records a new job's submission: its ID, creation time, and
	// spec. Called once per job, before any Append for that job.
	Create(id string, created time.Time, spec JobSpec) error
	// Append records the seq-th message of the job's stream log. seq is
	// the message's index in Job.Messages(), starting at 0. msg is lent
	// (see PipelineConfig.Emit): its Window or Event is valid for the
	// call only, so an implementation encodes or copies it before
	// returning.
	Append(id string, seq int, msg Message) error
	// State records a lifecycle transition at time at. errText is empty
	// except for JobFailed. Implementations should make terminal states
	// durable before returning.
	State(id string, state JobState, errText string, at time.Time) error
	// Close flushes buffered records and releases the store.
	Close() error
}

// RecoveredJob is one job reconstructed from a Store's records (see
// journal.Recover). Pass the recovered set to Manager.Reopen before the
// manager accepts new submissions.
//
// A recovered job replays its status, events, and message stream
// byte-identically. The campaign result (full metric traces) is kept
// nowhere, in memory or on disk: the stream is a job's whole output.
//
// The message log comes in one of two forms. Journal recovery hands
// over Encoded, the bytes the restored job serves, so a restart never
// re-encodes its history. Histories built or exported as structs —
// Job.Snapshot, journal handoff's Replay, tests — carry Log, which
// Manager.Reopen and Adopt encode when Encoded is nil.
type RecoveredJob struct {
	ID       string
	Spec     JobSpec
	State    JobState // non-final means the recording process died mid-job
	Err      string   // failure text, when State is JobFailed
	Created  time.Time
	Started  time.Time // zero if the job never started
	Finished time.Time // zero if the journal ended before a terminal state
	Log      []Message
	Encoded  *EncodedLog // when non-nil, the log; Log is ignored
}

// ErrInterrupted marks a recovered job whose journal ended without a
// terminal state: the previous process was killed while the job was
// queued or running. Reopen finalizes such jobs as JobFailed with this
// error, since their simulation state is unrecoverable.
var ErrInterrupted = errors.New("stream: job interrupted by service restart")

// ErrShardLost is the shard-loss job outcome: the manager instance
// (shard) that was running the job died and its in-flight simulation
// state went with it. It is the cross-instance sibling of
// ErrInterrupted — a restart of the same process finalizes interrupted
// jobs from its journal, whereas a shard router observing a dead member
// finalizes that member's running jobs with this error (queued jobs are
// re-submitted to a surviving shard instead, made duplicate-safe by the
// journaled idempotency key). The "failed-by-shard-loss" token is part
// of the wire contract: clients match on it to distinguish a lost shard
// from an ordinary pipeline failure.
var ErrShardLost = errors.New("stream: failed-by-shard-loss: owning shard died mid-job")
