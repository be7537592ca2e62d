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

// fixedRing is the encoded-frame ring as it was before it learned to
// grow: all ringSize slots allocated up front, three parallel arrays,
// -1 marking an empty slot. It is the reference the growing ring must
// match call for call.
type fixedRing struct {
	mu    sync.Mutex
	seqs  []int
	types []string
	data  [][]byte

	encoded, hits *atomic.Int64
}

func newFixedRing(size int, encoded, hits *atomic.Int64) *fixedRing {
	r := &fixedRing{
		seqs:    make([]int, size),
		types:   make([]string, size),
		data:    make([][]byte, size),
		encoded: encoded,
		hits:    hits,
	}
	for i := range r.seqs {
		r.seqs[i] = -1
	}
	return r
}

func (r *fixedRing) frameFor(seq int, msg Message) (Frame, error) {
	if msg.Type != "gap" {
		slot := seq % len(r.seqs)
		r.mu.Lock()
		if r.seqs[slot] == seq {
			f := Frame{Seq: seq, Type: r.types[slot], Data: r.data[slot]}
			r.mu.Unlock()
			r.hits.Add(1)
			return f, nil
		}
		r.mu.Unlock()
	}
	b, err := json.Marshal(msg)
	if err != nil {
		return Frame{}, err
	}
	r.encoded.Add(1)
	if msg.Type != "gap" {
		slot := seq % len(r.seqs)
		r.mu.Lock()
		r.seqs[slot] = seq
		r.types[slot] = msg.Type
		r.data[slot] = b
		r.mu.Unlock()
	}
	return Frame{Seq: seq, Type: msg.Type, Data: b}, nil
}

// ringPair drives the growing ring and the fixed reference with the
// same frameFor calls and fails on the first call where they differ in
// the frame returned or in whether it was a cache hit.
type ringPair struct {
	t              *testing.T
	k              int
	got            *frameRing
	want           *fixedRing
	gotEnc, gotHit atomic.Int64
	refEnc, refHit atomic.Int64
	calls          int
}

func newRingPair(t *testing.T, followLimit int) *ringPair {
	p := &ringPair{t: t, k: ringSize(followLimit)}
	p.got = newFrameRing(p.k, &p.gotEnc, &p.gotHit)
	p.want = newFixedRing(p.k, &p.refEnc, &p.refHit)
	return p
}

func (p *ringPair) frameFor(seq int, msg Message) {
	p.calls++
	gotHits, refHits := p.gotHit.Load(), p.refHit.Load()
	got, err := p.got.frameFor(seq, msg)
	if err != nil {
		p.t.Fatal(err)
	}
	want, err := p.want.frameFor(seq, msg)
	if err != nil {
		p.t.Fatal(err)
	}
	if got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Data, want.Data) {
		p.t.Fatalf("call %d frameFor(%d, %s): got {%d %s %s}, want {%d %s %s}",
			p.calls, seq, msg.Type, got.Seq, got.Type, got.Data, want.Seq, want.Type, want.Data)
	}
	if gotHit, refHit := p.gotHit.Load() > gotHits, p.refHit.Load() > refHits; gotHit != refHit {
		p.t.Fatalf("call %d frameFor(%d, %s): hit = %v, reference hit = %v", p.calls, seq, msg.Type, gotHit, refHit)
	}
	if n := len(p.got.slots); n > max(minRingSlots, p.k) {
		p.t.Fatalf("call %d: ring holds %d slots, cap %d", p.calls, n, p.k)
	}
}

func (p *ringPair) checkCounters() {
	p.t.Helper()
	if g, w := p.gotEnc.Load(), p.refEnc.Load(); g != w {
		p.t.Fatalf("frames encoded = %d, reference %d", g, w)
	}
	if g, w := p.gotHit.Load(), p.refHit.Load(); g != w {
		p.t.Fatalf("frame cache hits = %d, reference %d", g, w)
	}
}

// ringLog is a job log whose every message encodes differently, so a
// frame served from the wrong slot cannot compare equal.
func ringLog(n int) []Message {
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

// ringFollower mirrors Job.follow's cursor over a modelled job: drop
// forward with a gap when a live head outruns the follow limit, then
// deliver in order. A slow follower takes a few frames per step, so
// on a long live job it falls behind the limit and is sent gaps.
type ringFollower struct {
	next int
	slow bool
}

// ringModel is one job's stream driven through a ringPair: appends,
// followers stepping a few frames at a time, fresh replays and resumes.
type ringModel struct {
	p           *ringPair
	rng         *xrand.RNG
	log         []Message
	head        int // messages appended so far
	followLimit int
	followers   []*ringFollower
	gaps        int
}

func (m *ringModel) final() bool { return m.head == len(m.log) }

// step delivers up to n frames to f, the way window() hands a follower
// its next chunk.
func (m *ringModel) step(f *ringFollower, n int) {
	limit := m.followLimit
	if limit == 0 {
		limit = DefaultFollowLimit
	}
	if limit > 0 && !m.final() && m.head-f.next > limit {
		skipped := m.head - limit - f.next
		f.next += skipped
		m.p.frameFor(f.next-1, Message{Type: "gap", Dropped: skipped, Seq: f.next - 1})
		m.gaps++
	}
	for ; n > 0 && f.next < m.head; n-- {
		msg := m.log[f.next]
		msg.Seq = f.next
		m.p.frameFor(f.next, msg)
		f.next++
	}
}

// attach adds a follower resuming at from, clamped like follow does:
// negative → 0, past the head → the head.
func (m *ringModel) attach(from int) *ringFollower {
	if from < 0 {
		from = 0
	}
	if from > m.head {
		from = m.head
	}
	f := &ringFollower{next: from, slow: m.rng.Bool(0.3)}
	m.followers = append(m.followers, f)
	return f
}

func (m *ringModel) drain(f *ringFollower) {
	for f.next < m.head {
		m.step(f, len(m.log))
	}
}

// run plays one seeded history: the job streams live to 1–8
// followers with random appends, lag and late resumes, then finished
// replays and resumes run over the complete log.
func (m *ringModel) run() {
	k := m.p.k
	for i, n := 0, 1+m.rng.Intn(8); i < n; i++ {
		m.attach(0)
	}
	for !m.final() {
		switch r := m.rng.Intn(10); {
		case r < 5:
			m.head += 1 + m.rng.Intn(4)
			if m.head > len(m.log) {
				m.head = len(m.log)
			}
		case r < 9:
			f, n := m.followers[m.rng.Intn(len(m.followers))], 1+m.rng.Intn(2*k)
			if f.slow {
				n = 1 + m.rng.Intn(3)
			}
			m.step(f, n)
		default:
			m.attach(m.rng.Intn(m.head + k + 2))
		}
	}
	for _, f := range m.followers {
		m.drain(f)
	}
	for i, n := 0, 1+m.rng.Intn(3); i < n; i++ {
		m.drain(m.attach(0))
	}
	resumes := []int{0, m.head - 1, m.head, m.head + 5, k - 1, k, k + 1, 2*k + 3}
	for i := 0; i < 2; i++ {
		resumes = append(resumes, m.rng.Intn(m.head+k+2))
	}
	for _, from := range resumes {
		m.drain(m.attach(from))
	}
}

// The growing ring must behave exactly like a ring allocated at its cap
// up front: same frames, same hit/miss sequence, same counters, on live
// fan-out, finished replays, resumes from anywhere, and gap frames.
func TestFrameRingMatchesFixedRing(t *testing.T) {
	lengths := []int{1, 6, 16, 17, 64, 65, 255, 256, 257, 1001, 1100}
	seeds := uint64(2)
	if race.Enabled { // one goroutine drives these; the concurrent test below is the race job's
		seeds = 1
	}
	gaps := map[int]int{}
	for _, followLimit := range []int{0, 1000, -1} {
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, n := range lengths {
				t.Run(fmt.Sprintf("limit%d/seed%d/len%d", followLimit, seed, n), func(t *testing.T) {
					p := newRingPair(t, followLimit)
					m := &ringModel{
						p:           p,
						rng:         xrand.New(seed*7919 + uint64(n)),
						log:         ringLog(n),
						followLimit: followLimit,
					}
					m.run()
					gaps[followLimit] += m.gaps
					p.checkCounters()
					if p.gotHit.Load() == 0 && n > 1 {
						t.Fatal("no cache hits: the model never exercised the ring")
					}
				})
			}
		}
	}
	if gaps[0] == 0 || gaps[1000] == 0 || gaps[-1] != 0 {
		t.Fatalf("gap frames per follow limit = %v: want some under every limit and none with dropping disabled", gaps)
	}
}

// A ring that grows to its default cap takes no more slot allocations
// than the fixed ring's three arrays; a short job takes one.
func TestFrameRingGrowthAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	data := []byte(`{"type":"window"}`)
	r := newFrameRing(ringSize(0), nil, nil)
	fill := func(n int) func() {
		return func() {
			r.slots = nil
			for seq := 0; seq < n; seq++ {
				r.put(seq, "window", data)
			}
		}
	}
	for _, tc := range []struct{ msgs, slots, allocs int }{
		{6, 16, 1},
		{60, 64, 2},
		{DefaultFollowLimit, DefaultFollowLimit, 3},
		{3 * DefaultFollowLimit, DefaultFollowLimit, 3},
	} {
		if got := testing.AllocsPerRun(10, fill(tc.msgs)); got != float64(tc.allocs) {
			t.Errorf("%d messages: %.0f ring allocations, want %d", tc.msgs, got, tc.allocs)
		}
		if len(r.slots) != tc.slots {
			t.Errorf("%d messages: ring holds %d slots, want %d", tc.msgs, len(r.slots), tc.slots)
		}
	}
	// A resume deep into a finished job sizes the ring in one step.
	if got := testing.AllocsPerRun(10, func() { r.slots = nil; r.put(200, "window", data) }); got != 1 {
		t.Errorf("resume at seq 200: %.0f ring allocations, want 1", got)
	}
}

// Several frame followers attach to a live job at different points
// while it appends past the ring's cap, so the ring grows under
// concurrent hits and misses (the race CI job runs this). Every
// follower must see every frame in order with the exact bytes.
func TestFrameRingGrowsUnderConcurrentFollowers(t *testing.T) {
	const n = 700
	log := ringLog(n)
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
		id:            "ring",
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
			if f.Seq != next || !bytes.Equal(f.Data, wire[next]) {
				errs <- fmt.Errorf("follower from %d: frame %d %s, want %d %s", from, f.Seq, f.Data, next, wire[next])
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
	for i, msg := range log {
		j.mu.Lock()
		if i == n-1 {
			j.state = JobDone
		}
		j.appendLocked(msg)
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
	if got := len(j.ring().slots); got != ringSize(-1) {
		t.Errorf("ring holds %d slots after %d messages, want its cap %d", got, n, ringSize(-1))
	}
	if hits.Load() == 0 {
		t.Error("no follower hit the shared ring")
	}
}
