package stream

import "context"

// Frame is one wire-encoded stream message: the exact JSON bytes the
// serving layer writes for the message, plus the delivery metadata SSE
// framing needs. A job's log is kept in this encoded form (see
// EncodedLog), so N followers of one job share the one encoding each
// message got when it was appended instead of encoding N copies.
//
// Data is immutable once a Frame is delivered: it is a sub-slice of the
// job's log, handed to any number of followers concurrently, so holders
// must never modify it, and producers must never build it from pooled
// memory (the poolsafe lint invariant). Producers that are not a job's
// log may document a tighter lifetime — the client's SSE parser, for
// one, only guarantees Data until its callback returns.
type Frame struct {
	// Seq is the message's log index — or, on "gap" frames, the index
	// of the last skipped message, mirroring Message.Seq.
	Seq int
	// Type is the message type ("window" | "event" | "done" | "gap"),
	// surfaced so writers can emit SSE event: lines without decoding
	// Data.
	Type string
	// Data is json.Marshal of the Message (AppendMsg), without a
	// trailing newline. Read-only; aliased by every consumer.
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
	// of reassembling; it shares Data's lifetime. Frames from a job's
	// log leave it nil.
	Raw []byte
}

// FollowFramesFrom is FollowFrom delivering wire-encoded Frames
// instead of Messages: the same replay/live/gap semantics, but each
// frame's Data is a sub-slice of the job's encoded log, shared by every
// frame follower without a copy. serve's stream handler and the shard
// router's proxy consume this form and write Frame.Data to the
// connection verbatim, so the bytes on the wire are identical to
// marshaling each Message per follower.
func (j *Job) FollowFramesFrom(ctx context.Context, from int) <-chan Frame {
	ch := make(chan Frame, 16)
	go func() {
		defer close(ch)
		j.follow(ctx, from, func(f Frame) bool {
			if f.Type != "gap" && j.frameHits != nil {
				j.frameHits.Add(1)
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
