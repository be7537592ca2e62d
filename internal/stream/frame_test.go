package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hpas/internal/race"
	"hpas/internal/xrand"
)

// testLog is a job log whose every message encodes differently, so a
// frame cut from the wrong span cannot compare equal.
func testLog(n int) []Message {
	log := make([]Message, n)
	for i := range log {
		switch {
		case i == n-1:
			log[i] = Message{Type: "done", State: JobDone}
		case i%7 == 3:
			log[i] = Message{Type: "event", Event: &Event{Node: i, Class: "hog", Start: float64(i), End: float64(i + 5), Windows: 1}}
		default:
			log[i] = Message{Type: "window", Window: &Window{Node: i % 4, From: float64(i), To: float64(i + 5), Class: "none", Confidence: 0.5}}
		}
	}
	return log
}

// Several frame followers attach to a live job at different points
// while it appends, so the log's buffer is reallocated under concurrent
// readers (the race CI job runs this). Every follower must see every
// frame in order with json.Marshal's exact bytes, and no frame may
// reach into the next message's bytes.
func TestEncodedLogUnderConcurrentFollowers(t *testing.T) {
	const n = 700
	log := testLog(n)
	wire := make([][]byte, n)
	for i, msg := range log {
		b, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = b
	}
	var encoded, hits atomic.Int64
	j := &Job{
		id:            "log",
		state:         JobRunning,
		followLimit:   -1,
		updated:       make(chan struct{}),
		framesEncoded: &encoded,
		frameHits:     &hits,
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	follow := func(from int) {
		defer wg.Done()
		next := from
		for f := range j.FollowFramesFrom(ctx, from) {
			if f.Seq != next || f.Type != log[next].Type || !bytes.Equal(f.Data, wire[next]) {
				errs <- fmt.Errorf("follower from %d: frame %d %s %s, want %d %s %s", from, f.Seq, f.Type, f.Data, next, log[next].Type, wire[next])
				return
			}
			if cap(f.Data) != len(f.Data) {
				errs <- fmt.Errorf("follower from %d: frame %d has capacity %d past its %d bytes", from, f.Seq, cap(f.Data), len(f.Data))
				return
			}
			next++
		}
		if next != n {
			errs <- fmt.Errorf("follower from %d stopped at %d of %d", from, next, n)
		}
	}
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go follow(0)
	}
	for i := range log {
		j.mu.Lock()
		if i == n-1 {
			j.state = JobDone
		}
		if _, err := j.appendLocked(&log[i]); err != nil {
			t.Fatal(err)
		}
		j.mu.Unlock()
		if i == 10 || i == 300 {
			wg.Add(2)
			go follow(i / 2)
			go follow(i + 1)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := encoded.Load(); got != n {
		t.Errorf("%d messages encoded for %d appended; followers must not encode", got, n)
	}
	if hits.Load() == 0 {
		t.Error("no frame was served from the log")
	}
}

// logFollower is one modelled follower: the seq it expects next.
type logFollower struct {
	next int
	slow bool
}

// logModel is one job's stream driven through the real follow loop:
// appends, followers stepping a few frames at a time, fresh replays
// and resumes. Every frame must be what json.Marshal gives the message
// at its seq, or the gap frame for exactly the messages skipped.
type logModel struct {
	t         *testing.T
	j         *Job
	rng       *xrand.RNG
	log       []Message
	limit     int // the follow limit a gap leaves a follower behind
	k         int // the follow window: max(DefaultFollowLimit, limit)
	followers []*logFollower
	gaps      int
}

func (m *logModel) head() int   { return m.j.log.Len() }
func (m *logModel) final() bool { return m.head() == len(m.log) }

// appendN appends up to n more messages, finishing the job with the last.
func (m *logModel) appendN(n int) {
	for ; n > 0 && !m.final(); n-- {
		m.j.mu.Lock()
		if m.head() == len(m.log)-1 {
			m.j.state = JobDone
		}
		if _, err := m.j.appendLocked(&m.log[m.head()]); err != nil {
			m.t.Fatal(err)
		}
		m.j.mu.Unlock()
	}
}

// step runs the follow loop for f until it has delivered n frames or
// caught up with the head, checking every frame.
func (m *logModel) step(f *logFollower, n int) {
	if f.next >= m.head() && !m.final() {
		return // the loop would block for the next append
	}
	m.j.follow(context.Background(), f.next, func(fr Frame) bool {
		want := Message{Type: "gap", Dropped: fr.Seq + 1 - f.next}
		if fr.Type != "gap" {
			if fr.Seq != f.next {
				m.t.Fatalf("frame seq %d, follower expected %d", fr.Seq, f.next)
			}
			want = m.log[fr.Seq]
		} else {
			m.gaps++
			if lag := m.head() - (fr.Seq + 1); lag != m.limit {
				m.t.Fatalf("gap frame left the follower %d behind the head, want the follow limit %d", lag, m.limit)
			}
		}
		wire, err := json.Marshal(want)
		if err != nil {
			m.t.Fatal(err)
		}
		if fr.Type != want.Type || !bytes.Equal(fr.Data, wire) {
			m.t.Fatalf("frame %d = %s %s, want %s %s", fr.Seq, fr.Type, fr.Data, want.Type, wire)
		}
		if fr.Type != "gap" && cap(fr.Data) != len(fr.Data) {
			m.t.Fatalf("frame %d has capacity %d past its %d bytes", fr.Seq, cap(fr.Data), len(fr.Data))
		}
		f.next = fr.Seq + 1
		n--
		return n > 0 && f.next < m.head()
	})
}

// attach adds a follower resuming at from, clamped like follow does:
// negative → 0, past the head → the head.
func (m *logModel) attach(from int) *logFollower {
	f := &logFollower{next: min(max(from, 0), m.head()), slow: m.rng.Bool(0.3)}
	m.followers = append(m.followers, f)
	return f
}

func (m *logModel) drain(f *logFollower) {
	for f.next < m.head() {
		m.step(f, len(m.log))
	}
}

// run plays one seeded history: the job streams live to 1–8
// followers with random appends, lag and late resumes, then finished
// replays and resumes run over the complete log.
func (m *logModel) run() {
	k := m.k
	for i, n := 0, 1+m.rng.Intn(8); i < n; i++ {
		m.attach(0)
	}
	for !m.final() {
		switch r := m.rng.Intn(10); {
		case r < 5:
			m.appendN(1 + m.rng.Intn(4))
		case r < 9:
			f, n := m.followers[m.rng.Intn(len(m.followers))], 1+m.rng.Intn(2*k)
			if f.slow {
				n = 1 + m.rng.Intn(3)
			}
			m.step(f, n)
		default:
			m.attach(m.rng.Intn(m.head() + k + 2))
		}
	}
	for _, f := range m.followers {
		m.drain(f)
	}
	for i, n := 0, 1+m.rng.Intn(3); i < n; i++ {
		m.drain(m.attach(0))
	}
	h := m.head()
	resumes := []int{0, h - 1, h, h + 5, k - 1, k, k + 1, 2*k + 3}
	for i := 0; i < 2; i++ {
		resumes = append(resumes, m.rng.Intn(h+k+2))
	}
	for _, from := range resumes {
		m.drain(m.attach(from))
	}
}

// Seeded follow histories drive the follow loop over a job's encoded
// log — live fan-out with slow followers, finished replays, resumes from
// anywhere and gaps — and every frame served must be json.Marshal of
// the message at its seq, or the follower's own gap frame where
// drop-oldest skipped. Followers encode only their gap frames.
func TestFrameRingMatchesFixedRing(t *testing.T) {
	lengths := []int{1, 6, 16, 17, 64, 65, 255, 256, 257, 1001, 1100}
	seeds := uint64(2)
	if race.Enabled { // one goroutine drives these; the concurrent test above is the race job's
		seeds = 1
	}
	gaps := map[int]int{}
	for _, followLimit := range []int{0, 1000, -1} {
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, n := range lengths {
				t.Run(fmt.Sprintf("limit%d/seed%d/len%d", followLimit, seed, n), func(t *testing.T) {
					var encoded, hits atomic.Int64
					limit := followLimit
					if limit == 0 {
						limit = DefaultFollowLimit
					}
					m := &logModel{
						t:     t,
						j:     &Job{id: "model", state: JobRunning, followLimit: followLimit, updated: make(chan struct{}), framesEncoded: &encoded, frameHits: &hits},
						rng:   xrand.New(seed*7919 + uint64(n)),
						log:   testLog(n),
						limit: limit,
						k:     max(DefaultFollowLimit, followLimit),
					}
					m.run()
					gaps[followLimit] += m.gaps
					if got, want := encoded.Load(), int64(n+m.gaps); got != want {
						t.Fatalf("%d messages encoded, want %d appended + %d gap frames", got, n, m.gaps)
					}
				})
			}
		}
	}
	if gaps[0] == 0 || gaps[1000] == 0 || gaps[-1] != 0 {
		t.Fatalf("gap frames per follow limit = %v: want some under every limit and none with dropping disabled", gaps)
	}
}
