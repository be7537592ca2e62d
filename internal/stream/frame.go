package stream

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Frame is one wire-encoded stream message: the exact JSON bytes the
// serving layer writes for the message, plus the delivery metadata SSE
// framing needs. Frames exist so N followers of one job share a single
// json.Marshal of each message instead of encoding N copies — the
// job's log keeps raw Messages, and a per-job ring caches the encoded
// form of the most recent ones (see frameRing).
//
// Data is immutable once a Frame is delivered: it may be cached in the
// ring and handed to any number of followers concurrently, so holders
// must never modify it, and producers must never build it from pooled
// memory (the poolsafe lint invariant). Producers that are not the
// ring may document a tighter lifetime — the client's SSE parser, for
// one, only guarantees Data until its callback returns.
type Frame struct {
	// Seq is the message's log index — or, on "gap" frames, the index
	// of the last skipped message, mirroring Message.Seq.
	Seq int
	// Type is the message type ("window" | "event" | "done" | "gap"),
	// surfaced so writers can emit SSE event: lines without decoding
	// Data.
	Type string
	// Data is json.Marshal of the Message, without a trailing newline.
	// Read-only; aliased by every consumer.
	Data []byte
	// More, when true, promises the producer already holds at least one
	// more frame ready for immediate delivery, so a consumer batching
	// writes may defer its flush. Purely a transport hint — it never
	// affects the bytes on the wire.
	More bool
	// Raw, when non-nil, is the frame's complete SSE wire block — the
	// id:/event:/data: lines plus the terminating blank line — exactly
	// as assembling Seq, Type, and Data would produce it. A producer
	// that already holds the frame in wire form (the client's SSE
	// parser) sets it so an SSE re-emitter can write one slice instead
	// of reassembling; it shares Data's lifetime. Ring frames leave it
	// nil.
	Raw []byte
}

// frameRing caches the encoded form of the last ringSize messages of
// one job, keyed by Seq. Encoding is lazy — a message is marshaled the
// first time any follower needs it — and misses on evicted (old)
// entries simply re-encode, so the ring is a bounded cache, never a
// source of truth. Gap frames are per-follower synthetics and are
// never cached: caching one under a log index would corrupt the replay
// of the real message living at that index.
//
// The ring grows with the job's stream instead of starting at its cap:
// it is empty until the first miss publishes, then ×4 from
// minRingSlots up to max (16 → 64 → 256 for the default cap). Below the
// cap no stored seq reaches len(slots), so every entry sits at its own
// index and the ring holds exactly what a ring allocated at max from
// the start would hold — same hits, same misses — while a short job
// pays for its own length, not the follow limit's.
type frameRing struct {
	mu    sync.Mutex
	slots []frameSlot // len grows to max; a slot is empty while data is nil
	max   int         // ringSize(followLimit)

	encoded *atomic.Int64 // messages marshaled (cache misses); may be nil
	hits    *atomic.Int64 // frames served from cache; may be nil
}

// frameSlot is one cached encoding. Keeping the three fields together
// makes each growth step a single allocation.
type frameSlot struct {
	seq  int
	typ  string
	data []byte
}

// minRingSlots is the ring's first allocation: enough for a typical
// short job (a handful of windows plus done) in 768 bytes.
const minRingSlots = 16

// ringSize picks the ring's cap for a job with the given follow limit:
// at least DefaultFollowLimit, and never smaller than the live follow
// window, so every follower inside the window hits the cache.
func ringSize(followLimit int) int {
	if followLimit > DefaultFollowLimit {
		return followLimit
	}
	return DefaultFollowLimit
}

func newFrameRing(maxSlots int, encoded, hits *atomic.Int64) *frameRing {
	return &frameRing{max: maxSlots, encoded: encoded, hits: hits}
}

// frameFor returns the wire encoding of msg, which must be the log
// message at index seq (with Seq already stamped; Seq is excluded from
// JSON, so it does not affect the bytes). Cache hits share one []byte
// across all followers; misses marshal outside the ring lock and
// publish the result for the next follower.
func (r *frameRing) frameFor(seq int, msg Message) (Frame, error) {
	if msg.Type != "gap" {
		r.mu.Lock()
		if n := len(r.slots); n > 0 {
			if s := r.slots[seq%n]; s.data != nil && s.seq == seq {
				r.mu.Unlock()
				if r.hits != nil {
					r.hits.Add(1)
				}
				return Frame{Seq: seq, Type: s.typ, Data: s.data}, nil
			}
		}
		r.mu.Unlock()
	}
	b, err := json.Marshal(msg)
	if err != nil {
		return Frame{}, err
	}
	if r.encoded != nil {
		r.encoded.Add(1)
	}
	if msg.Type != "gap" {
		r.put(seq, msg.Type, b)
	}
	return Frame{Seq: seq, Type: msg.Type, Data: b}, nil
}

// put publishes an encoding, first growing the ring if seq lies past
// its end and the ring is below its cap.
func (r *frameRing) put(seq int, typ string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.slots); seq >= n && n < r.max {
		if n == 0 {
			n = minRingSlots
		}
		for n <= seq && n < r.max {
			n *= 4
		}
		if n > r.max {
			n = r.max
		}
		// Below the cap every stored seq is < len(slots), i.e. sits at
		// index seq, which is also seq % n for the grown length.
		grown := make([]frameSlot, n)
		copy(grown, r.slots)
		r.slots = grown
	}
	r.slots[seq%len(r.slots)] = frameSlot{seq: seq, typ: typ, data: data}
}

// ring returns the job's frame ring, creating it on first use so jobs
// nobody streams never pay for one.
func (j *Job) ring() *frameRing {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frames == nil {
		j.frames = newFrameRing(ringSize(j.followLimit), j.framesEncoded, j.frameHits)
	}
	return j.frames
}

// FollowFramesFrom is FollowFrom delivering wire-encoded Frames
// instead of Messages: the same replay/live/gap semantics, but each
// message is JSON-encoded at most once per ring residency and shared
// by every frame follower of the job. serve's stream handler and the
// shard router's proxy consume this form and write Frame.Data to the
// connection verbatim, so the bytes on the wire are identical to
// marshaling each Message per follower — just not repeated per
// follower.
func (j *Job) FollowFramesFrom(ctx context.Context, from int) <-chan Frame {
	ch := make(chan Frame, 16)
	ring := j.ring()
	go func() {
		defer close(ch)
		j.follow(ctx, from, func(m Message) bool {
			f, err := ring.frameFor(m.Seq, m)
			if err != nil {
				return false
			}
			select {
			case ch <- f:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch
}
