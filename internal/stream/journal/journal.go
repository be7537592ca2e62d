// Package journal is the on-disk stream.Store: an append-only journal
// of job records under a data directory, one newline-delimited JSON
// file per job ID. Each line is one record — the job's spec at
// submission, a state transition, or one stream message — so a job's
// full history replays in write order.
//
// Writes are buffered and fsynced in batches by a background flusher
// (Options.FlushInterval); a terminal state record is flushed and
// fsynced synchronously before State returns, so a finished job is
// durable the moment its followers see the final "done" message.
//
// Recovery is crash-tolerant: a process killed mid-write leaves at most
// a torn final record in one or more files, and Recover truncates such
// tails back to the last complete record instead of failing. Jobs whose
// journal ends without a terminal state are surfaced with their last
// recorded state; Manager.Reopen finalizes them as failed-by-restart.
package journal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpas/internal/stream"
)

const suffix = ".journal"

// Options tunes a Journal.
type Options struct {
	// FlushInterval bounds how long an appended record may sit in the
	// write buffer before it is flushed and fsynced (default 200ms).
	// Terminal state records are always flushed synchronously.
	FlushInterval time.Duration
	// Logf receives background flusher errors — failures from the
	// periodic batch sync, which has no caller to return them to. The
	// default writes to os.Stderr. Failures are also counted; see
	// SyncErrs.
	Logf func(format string, args ...any)
}

// record is one journal line. Kind selects which of the remaining
// fields are meaningful.
type record struct {
	Kind  string          `json:"k"` // "spec" | "state" | "msg"
	At    time.Time       `json:"at,omitempty"`
	Seq   int             `json:"seq,omitempty"`
	State stream.JobState `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Msg   *stream.Message `json:"msg,omitempty"`
}

// Journal is an append-only on-disk stream.Store. Open one per data
// directory; it is safe for concurrent use by the manager's workers.
type Journal struct {
	dir   string
	every time.Duration
	logf  func(format string, args ...any)

	mu     sync.Mutex
	files  map[string]*jobFile
	closed bool

	syncErrs atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// SyncErrs reports how many background batch syncs have failed since
// the journal was opened. A nonzero count means records may sit
// unflushed longer than FlushInterval promised; operators should treat
// it like any other durability alarm.
func (j *Journal) SyncErrs() int64 { return j.syncErrs.Load() }

// jobFile is one job's open journal file with its write buffer. enc is
// a persistent encoder bound to buf: records are encoded straight into
// the flush buffer (Encode appends the record's JSON plus a newline,
// byte-identical to Marshal+'\n'), so the fsync-batched flusher also
// amortizes encoding — no per-record line allocation and copy.
type jobFile struct {
	mu    sync.Mutex
	f     *os.File
	buf   bytes.Buffer
	enc   *json.Encoder
	dirty bool
}

// Open creates dir if needed and returns a journal writing under it.
func Open(dir string, opts Options) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 200 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	j := &Journal{
		dir:   dir,
		every: opts.FlushInterval,
		logf:  opts.Logf,
		files: make(map[string]*jobFile),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go j.flusher()
	return j, nil
}

// Dir returns the journal's data directory.
func (j *Journal) Dir() string { return j.dir }

// Create implements stream.Store: it starts the job's file with a spec
// record. The spec is stored as JSON (fields the stream layer marks
// non-serializable, like the detector and emit hook, are omitted and
// restored as zero values on recovery — recovered jobs are terminal and
// never re-run).
func (j *Journal) Create(id string, created time.Time, spec stream.JobSpec) error {
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("journal: marshal spec for %s: %w", id, err)
	}
	return j.append(id, record{Kind: "spec", At: created, Spec: raw}, false)
}

// Append implements stream.Store: one record per stream message, in log
// order.
func (j *Journal) Append(id string, seq int, msg stream.Message) error {
	m := msg
	return j.append(id, record{Kind: "msg", Seq: seq, Msg: &m}, false)
}

// State implements stream.Store. Terminal states are flushed and
// fsynced before returning, and close the job's file — a finished job
// costs no open descriptor.
func (j *Journal) State(id string, state stream.JobState, errText string, at time.Time) error {
	return j.append(id, record{Kind: "state", At: at, State: state, Error: errText}, state.Final())
}

// append serializes and writes one record; sync forces an immediate
// flush+fsync and closes the job's file (terminal records).
func (j *Journal) append(id string, rec record, sync bool) error {
	if err := checkID(id); err != nil {
		return err
	}
	jf, err := j.file(id)
	if err != nil {
		return err
	}
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.f == nil {
		return fmt.Errorf("journal: job %s already finalized", id)
	}
	// Encode marshals the record completely before writing anything to
	// the buffer, so a marshal failure leaves the journal line-aligned.
	if err := jf.enc.Encode(rec); err != nil {
		return fmt.Errorf("journal: marshal record for %s: %w", id, err)
	}
	jf.dirty = true
	if !sync {
		return nil
	}
	//lint:allow locksafe jf.mu is the per-file I/O lock; serializing this file's writes is its purpose
	if err := jf.flushLocked(); err != nil {
		return err
	}
	//lint:allow locksafe jf.mu is the per-file I/O lock; the close must not race a concurrent flush
	err = jf.f.Close()
	jf.f = nil
	j.mu.Lock()
	delete(j.files, id)
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("journal: close %s: %w", id, err)
	}
	return nil
}

// file returns the job's open file, creating it on first use.
func (j *Journal) file(id string) (*jobFile, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("journal: closed")
	}
	if jf, ok := j.files[id]; ok {
		return jf, nil
	}
	f, err := os.OpenFile(j.path(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	jf := &jobFile{f: f}
	jf.enc = json.NewEncoder(&jf.buf)
	j.files[id] = jf
	return jf, nil
}

func (j *Journal) path(id string) string {
	return filepath.Join(j.dir, id+suffix)
}

// flushLocked drains the write buffer to the file and fsyncs it.
// Callers hold jf.mu.
func (jf *jobFile) flushLocked() error {
	if !jf.dirty || jf.f == nil {
		return nil
	}
	if _, err := jf.f.Write(jf.buf.Bytes()); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	jf.buf.Reset()
	if err := jf.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	jf.dirty = false
	return nil
}

// flusher batches fsyncs: every FlushInterval it flushes each dirty
// file once, so N appends within an interval cost one write+fsync.
func (j *Journal) flusher() {
	defer close(j.done)
	t := time.NewTicker(j.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := j.Sync(); err != nil {
				j.syncErrs.Add(1)
				j.logf("journal: background sync: %v", err)
			}
		case <-j.stop:
			return
		}
	}
}

// Sync flushes and fsyncs every dirty job file now.
func (j *Journal) Sync() error {
	j.mu.Lock()
	files := make([]*jobFile, 0, len(j.files))
	for _, jf := range j.files {
		files = append(files, jf)
	}
	j.mu.Unlock()
	var first error
	for _, jf := range files {
		jf.mu.Lock()
		//lint:allow locksafe jf.mu is the per-file I/O lock; serializing this file's writes is its purpose
		if err := jf.flushLocked(); err != nil && first == nil {
			first = err
		}
		jf.mu.Unlock()
	}
	return first
}

// Close implements stream.Store: it stops the flusher, flushes every
// buffer, and closes the files. The journal cannot be used afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	err := j.Sync()
	j.mu.Lock()
	files := make([]*jobFile, 0, len(j.files))
	for id, jf := range j.files {
		files = append(files, jf)
		delete(j.files, id)
	}
	j.mu.Unlock()
	for _, jf := range files {
		jf.mu.Lock()
		if jf.f != nil {
			//lint:allow locksafe jf.mu is the per-file I/O lock; the close must not race a concurrent flush
			if cerr := jf.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			jf.f = nil
		}
		jf.mu.Unlock()
	}
	return err
}

// Recover scans the data directory and reconstructs every journaled
// job, sorted by job ID (numeric for manager-assigned "jNNNN" IDs). A
// torn or corrupt tail — the signature of a crash mid-write — is
// truncated back to the last complete record, and the records before it
// are kept. Call Recover on a freshly opened journal, before any
// writes, and hand the result to Manager.Reopen.
func (j *Journal) Recover() ([]stream.RecoveredJob, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []stream.RecoveredJob
	var d recordDecoder
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		id := strings.TrimSuffix(name, suffix)
		if checkID(id) != nil {
			continue
		}
		rj, ok, err := recoverFile(filepath.Join(j.dir, name), id, &d)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, rj)
		}
	}
	sortByID(out)
	return out, nil
}

// sortByID orders recovered jobs by ID: two IDs that both read as "j"
// then a non-negative integer (Sscanf's "j%d": an optional sign, then
// the leading digits) compare by that number, any other pair by string.
// Each ID is parsed once, not once per comparison.
func sortByID(jobs []stream.RecoveredJob) {
	type key struct {
		id  string
		num int64 // -1: not a "j%d" ID
		at  int
	}
	keys := make([]key, len(jobs))
	for i := range jobs {
		keys[i] = key{id: jobs[i].ID, num: idNumber(jobs[i].ID), at: i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.num >= 0 && b.num >= 0 && a.num != b.num {
			return cmp.Compare(a.num, b.num)
		}
		return strings.Compare(a.id, b.id)
	})
	sorted := make([]stream.RecoveredJob, len(jobs))
	for i, k := range keys {
		sorted[i] = jobs[k.at]
	}
	copy(jobs, sorted)
}

// idNumber reads id as fmt.Sscanf(id, "j%d", &n) does, returning -1
// where that scan fails.
func idNumber(id string) int64 {
	s, ok := strings.CutPrefix(id, "j")
	if !ok {
		return -1
	}
	end := 0
	if end < len(s) && (s[end] == '+' || s[end] == '-') {
		end++
	}
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(s[:end], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// recoverFile replays one job file. ok is false for files holding no
// complete record (they are truncated to empty and skipped).
func recoverFile(path, id string, d *recordDecoder) (rj stream.RecoveredJob, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return rj, false, fmt.Errorf("journal: %w", err)
	}
	rj.ID = id
	rj.State = stream.JobQueued
	good := 0 // byte offset past the last complete, parseable record
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // torn tail: record written without its newline
		}
		var rec record
		if d.decodeRecord(data[good:good+nl], &rec) != nil {
			break // corrupt tail record
		}
		apply(&rj, &rec, &ok)
		good += nl + 1
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return rj, false, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	if ok && rj.Created.IsZero() {
		// No (or unreadable) spec record — e.g. the spec write was lost
		// to a faulty disk, or an older build let a fast Cancel journal
		// ahead of Create. The job's history is still valid; fall back
		// to the earliest timestamp the log does carry.
		switch {
		case !rj.Started.IsZero():
			rj.Created = rj.Started
		case !rj.Finished.IsZero():
			rj.Created = rj.Finished
		}
	}
	return rj, ok, nil
}

// apply folds one record into the job being reconstructed. The message
// of a msg record is copied into the log by value.
func apply(rj *stream.RecoveredJob, rec *record, ok *bool) {
	switch rec.Kind {
	case "spec":
		*ok = true
		rj.Created = rec.At
		if len(rec.Spec) > 0 {
			// Best-effort: an undecodable spec still leaves the log usable.
			json.Unmarshal(rec.Spec, &rj.Spec)
		}
	case "state":
		*ok = true
		switch {
		case rec.State == stream.JobRunning:
			rj.State = stream.JobRunning
			rj.Started = rec.At
		case rec.State.Final():
			rj.State = rec.State
			rj.Err = rec.Error
			rj.Finished = rec.At
		}
	case "msg":
		if rec.Msg != nil {
			*ok = true
			rj.Log = append(rj.Log, *rec.Msg)
		}
	}
}

// checkID rejects IDs that would escape the data directory or collide
// with path syntax. Manager-assigned IDs ("jNNNN") always pass.
func checkID(id string) error {
	if id == "" {
		return fmt.Errorf("journal: empty job ID")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("journal: job ID %q contains %q", id, r)
		}
	}
	return nil
}
