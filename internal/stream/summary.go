package stream

// DefaultNormalClass is the class treated as background (no anomaly).
const DefaultNormalClass = "none"

// Summarizer coalesces a stream of classified windows into anomaly
// events, the semantic summary a human or alerting system consumes: one
// event per maximal run of consecutive same-class windows, instead of
// one alert per window. Windows classified as the background class
// close any open event and produce nothing themselves.
//
// The summarizer is single-stream: feed it one node's windows in time
// order (the pipeline keeps one per watched node). Call Flush at stream
// end to close an event still open when the run stops.
type Summarizer struct {
	normal  string
	emit    func(Event)
	open    Event // the event being built; Windows is 0 while none is
	confSum float64
}

// NewSummarizer returns a summarizer emitting completed events to emit.
// normal is the background class ("" selects DefaultNormalClass).
func NewSummarizer(normal string, emit func(Event)) *Summarizer {
	if normal == "" {
		normal = DefaultNormalClass
	}
	return &Summarizer{normal: normal, emit: emit}
}

// Observe folds one classified window into the event state.
func (s *Summarizer) Observe(w Window) {
	switch {
	case w.Class == s.normal:
		s.Flush()
	case s.open.Windows > 0 && s.open.Class == w.Class && s.open.Node == w.Node:
		s.open.End = w.To
		s.open.Windows++
		s.confSum += w.Confidence
	default:
		// A different anomaly class (or node) back-to-back: the previous
		// event ends where the new one begins.
		s.Flush()
		s.open = Event{
			Node:    w.Node,
			Class:   w.Class,
			Start:   w.From,
			End:     w.To,
			Windows: 1,
		}
		s.confSum = w.Confidence
	}
}

// Flush closes and emits the open event, if any. Use at stream end so
// an anomaly still active when the run stops is not lost.
func (s *Summarizer) Flush() {
	if s.open.Windows == 0 {
		return
	}
	ev := s.open
	ev.Confidence = s.confSum / float64(ev.Windows)
	s.open = Event{}
	s.confSum = 0
	s.emit(ev)
}
