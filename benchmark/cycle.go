package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"
)

// A step is one deterministic slice of a workload's cycle: the same
// inputs every repeat, so its output must be the same bytes every
// repeat and its duration is one sample of the same quantity.
type step struct {
	name string
	// work is the number of work units (rows, windows, jobs, frames)
	// the step completes.
	work int
	// op marks steps that are whole client operations; they are what
	// the result line counts as attempted and failed.
	op bool
	// midOp marks a step that ends a first-result clock the step before
	// it started; no probe slice may run between the two, or the slice
	// would be inside the first-result time.
	midOp bool
	// run executes the step once. Spans it records hang under parent.
	run func(tr *tracer, parent int) (stepResult, error)
}

// stepResult is what a step reports besides its duration.
type stepResult struct {
	// first is the time from the start of the op to its first result;
	// zero on steps that have none.
	first time.Duration
	// digest fingerprints the step's output. The runner fails a repeat
	// whose digest differs from the warm-up cycle's.
	digest uint64
}

// samples are the timings of a run of cycles, in milliseconds, indexed
// by step then by repeat. Failed repeats leave no sample.
type samples struct {
	names   []string
	dur     [][]float64
	first   [][]float64
	digests []uint64 // last successful digest per step
	// host holds the probe slices interleaved with the cycles.
	host []float64

	work      int // work units per cycle
	attempted int
	failed    int
	notes     []string // first few failure descriptions
	elapsed   time.Duration
}

// maxNotes bounds the failure descriptions a run keeps; the counts are
// exact regardless.
const maxNotes = 8

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.notes) < maxNotes {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// The simulator's speed depends on where its stack frames lie: the same
// hpas.GenerateDataset call read 11.4 ms from the cycle and 15.2 ms from
// the ladder in one build, 11.4 and 11.5 in the next, and moved by as
// much when nothing but the caller's stack depth was varied (README,
// "Stack placement"). A benchmark that always calls from one depth draws
// one ticket in that lottery per build. So repeat r of a step is called
// from r mod staggerLevels frames of staggerBytes deeper, and the quiet
// decile reads the placements the code runs well at, whichever the
// build gave it.
const (
	staggerLevels = 16
	staggerBytes  = 272 // 16 levels span a 4 KiB page
)

// atDepth calls f from depth padded frames further down the stack.
//
//go:noinline
func atDepth(depth int, f func()) {
	var pad [staggerBytes]byte
	pad[depth] = 1
	if depth > 0 {
		atDepth(depth-1, f)
	} else {
		f()
	}
	if pad[depth] != 1 { // reads the frame after the call, so it cannot be dropped
		panic("benchmark: stack pad overwritten")
	}
}

// runCycles repeats the cycle a fixed number of times on the calling
// goroutine — the closed loop's one client — timing every step, and
// between steps runs a slice of probe (when given one) whenever
// probeEvery has passed since the last, so the host is read through the
// same seconds as the program. want holds the reference digests (nil on
// the warm-up cycle that produces them). The run is abandoned with an
// error once it exceeds guard (when positive).
func runCycles(steps []step, repeats int, want []uint64, tr *tracer, probe *hostKernel, guard time.Duration) (*samples, error) {
	s := &samples{
		names:   make([]string, len(steps)),
		dur:     make([][]float64, len(steps)),
		first:   make([][]float64, len(steps)),
		digests: make([]uint64, len(steps)),
	}
	for i, st := range steps {
		s.names[i] = st.name
		s.dur[i] = make([]float64, 0, repeats)
		s.work += st.work
	}
	var (
		st  step
		sp  int
		res stepResult
		err error
	)
	call := func() { res, err = st.run(tr, sp) }
	begin := time.Now()
	for r := 0; r < repeats; r++ {
		cyc := tr.begin("cycle", -1, r)
		for i := range steps {
			st = steps[i]
			if probe != nil && !st.midOp && probe.due() {
				s.host = append(s.host, probe.slice())
			}
			sp = tr.begin(st.name, cyc, r*len(steps)+i)
			t0 := time.Now()
			atDepth(r%staggerLevels, call)
			d := time.Since(t0)
			tr.end(sp)
			if st.op {
				s.attempted++
			}
			switch {
			case err != nil:
				s.fail("repeat %d step %s: %v", r, st.name, err)
				continue
			case want != nil && res.digest != want[i]:
				s.fail("repeat %d step %s: output digest %016x differs from the warm-up cycle's %016x", r, st.name, res.digest, want[i])
				continue
			}
			s.digests[i] = res.digest
			s.dur[i] = append(s.dur[i], ms(d))
			if res.first > 0 {
				s.first[i] = append(s.first[i], ms(res.first))
			}
		}
		tr.end(cyc)
		if guard > 0 && time.Since(begin) > guard {
			return s, fmt.Errorf("wall-clock guard: %d of %d cycles took %v, over the %v limit", r+1, repeats, time.Since(begin).Round(time.Millisecond), guard)
		}
	}
	s.elapsed = time.Since(begin)
	if s.attempted == 0 {
		// A cycle with no client ops (the batch path) counts its steps.
		s.attempted = repeats * len(steps)
	}
	return s, nil
}

// merge appends another run of the same cycle.
func (s *samples) merge(o *samples) {
	if s.names == nil {
		*s = *o
		return
	}
	for i := range s.dur {
		s.dur[i] = append(s.dur[i], o.dur[i]...)
		s.first[i] = append(s.first[i], o.first[i]...)
	}
	s.digests = o.digests
	s.host = append(s.host, o.host...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.notes = append(s.notes, o.notes...)
	s.elapsed += o.elapsed
}

// cycleMS is the quiet cycle time in milliseconds.
func (s *samples) cycleMS() float64 { return cycleTime(s.dur) }

// allDur flattens every step sample, for the median and tail
// diagnostics.
func (s *samples) allDur() []float64 {
	var out []float64
	for _, xs := range s.dur {
		out = append(out, xs...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// digestOf fingerprints output bytes (FNV-1a 64).
func digestOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// span is one traced interval. Spans of one op share its op id; parent
// is the index of the span that caused this one, -1 for roots.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer collects spans in memory and writes them when the benchmark
// ends. A nil tracer records nothing, which is the untraced run. It is
// used from the one client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// child opens a span under parent, sharing its op id.
func (t *tracer) child(name string, parent int) int {
	if t == nil || parent < 0 {
		return -1
	}
	return t.begin(name, parent, t.spans[parent].Op)
}

// flush writes the spans as one JSON document.
func (t *tracer) flush(path string) error {
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
