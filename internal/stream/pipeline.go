package stream

import (
	"fmt"
	"time"

	"hpas/internal/diagnose"
	"hpas/internal/features"
	"hpas/internal/monitor"
)

// PipelineConfig configures one job's streaming detection pipeline.
type PipelineConfig struct {
	// Detector is the pre-trained classifier (see diagnose.Train). Its
	// Window is the default observation window; its NFeatures guards
	// against metric-set drift between training and serving. Excluded
	// from JSON (the model is not serializable); a journaled spec keeps
	// only the scalar pipeline knobs. A window's confidence is the
	// winning class's vote share when Detector.Model has
	// VotesInto(dst, x []float64) []float64 (ml.Forest does); any other
	// model is classified by Predict alone and reports confidence 1.
	Detector *diagnose.Detector `json:"-"`
	// Nodes are the node IDs to watch (default: node 0 only).
	Nodes []int
	// Window is the classification window in seconds (default:
	// Detector.Window). It should match the effective window the
	// detector was trained on.
	Window float64
	// Stride is the hop between windows in seconds (default: Window,
	// i.e. disjoint windows; smaller values overlap).
	Stride float64
	// Normal is the background class (default "none").
	Normal string
	// Emit receives every stream message in order. It runs on the
	// simulation goroutine of the job's run. The message is lent: its
	// Window or Event is the pipeline's own, overwritten by the next
	// message, so it is valid for the call only, like
	// monitor.Sample.Values. A receiver that keeps a message copies
	// what it points to (the manager encodes it on the spot).
	Emit func(Message) `json:"-"`
	// Telemetry, when non-nil, accumulates self-metrics.
	Telemetry *Telemetry `json:"-"`
}

// voter is implemented by classifiers that expose per-class vote shares
// (the random forest); it upgrades predictions with a confidence. The
// shares are written into dst, which the pipeline reuses across windows.
// This is the only shape the pipeline looks for: a model that exposes
// shares some other way (a Votes(x) method, say) does not satisfy it and
// falls back, without an error, to Predict at confidence 1.
type voter interface {
	VotesInto(dst, x []float64) []float64
}

// Pipeline turns a monitor sample stream into classified windows and
// summarized anomaly events. It is not safe for concurrent use; each
// job owns one pipeline driven by its simulation goroutine.
type Pipeline struct {
	cfg   PipelineConfig
	votes voter // nil when the model has no vote shares
	nodes map[int]*nodeState
	err   error

	// Reused by every window of every node: classify runs to completion
	// on one goroutine and nothing it calls keeps the slices.
	extract  features.Scratch
	featBuf  []float64
	votesBuf []float64

	// The window and event every emitted message lends (see Emit).
	win Window
	ev  Event
}

// nodeState is one watched node's ring-buffered window over the metric
// stream: ring[m*winN:(m+1)*winN] holds the last winN samples of metric
// m. The rings and the rows are carved out of one backing array.
type nodeState struct {
	ring    []float64
	rows    [][]float64 // scratch: chronological copy handed to features
	head    int         // next write position == oldest sample when full
	count   int         // total samples observed
	winN    int
	strideN int
	period  float64
	sum     *Summarizer
}

// NewPipeline validates the configuration and returns a pipeline ready
// to observe monitor samples.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Detector == nil || cfg.Detector.Model == nil || len(cfg.Detector.Classes) == 0 {
		return nil, fmt.Errorf("stream: pipeline needs a trained detector")
	}
	if cfg.Emit == nil {
		return nil, fmt.Errorf("stream: pipeline needs an emit sink")
	}
	if cfg.Window <= 0 {
		cfg.Window = cfg.Detector.Window
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("stream: non-positive window")
	}
	if cfg.Stride <= 0 {
		cfg.Stride = cfg.Window
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{0}
	}
	if cfg.Normal == "" {
		cfg.Normal = DefaultNormalClass
	}
	p := &Pipeline{cfg: cfg, nodes: make(map[int]*nodeState, len(cfg.Nodes))}
	p.votes, _ = cfg.Detector.Model.(voter)
	for _, n := range cfg.Nodes {
		p.nodes[n] = nil // watched; allocated lazily once the period is known
	}
	return p, nil
}

// Observe consumes one monitor sample; it satisfies monitor.TapFunc and
// is wired into a run via core.RunConfig.Tap.
func (p *Pipeline) Observe(s monitor.Sample) {
	st, watched := p.nodes[s.Node]
	if !watched || p.err != nil {
		return
	}
	if p.cfg.Telemetry != nil {
		p.cfg.Telemetry.Samples.Add(1)
	}
	if st == nil {
		st = p.newNodeState(s)
		p.nodes[s.Node] = st
	}
	for m, v := range s.Values {
		st.ring[m*st.winN+st.head] = v
	}
	st.head = (st.head + 1) % st.winN
	st.count++
	if st.count >= st.winN && (st.count-st.winN)%st.strideN == 0 {
		p.classify(s.Node, st)
	}
}

func (p *Pipeline) newNodeState(s monitor.Sample) *nodeState {
	winN := int(p.cfg.Window/s.Period + 0.5)
	if winN < 1 {
		winN = 1
	}
	strideN := int(p.cfg.Stride/s.Period + 0.5)
	if strideN < 1 {
		strideN = 1
	}
	nMetrics := len(s.Values)
	buf := make([]float64, 2*nMetrics*winN)
	st := &nodeState{
		ring:    buf[: nMetrics*winN : nMetrics*winN],
		rows:    make([][]float64, nMetrics),
		winN:    winN,
		strideN: strideN,
		period:  s.Period,
	}
	rows := buf[nMetrics*winN:]
	for m := range st.rows {
		st.rows[m] = rows[m*winN : (m+1)*winN : (m+1)*winN]
	}
	st.sum = NewSummarizer(p.cfg.Normal, func(ev Event) {
		if p.cfg.Telemetry != nil {
			p.cfg.Telemetry.Events.Add(1)
		}
		p.ev = ev
		p.cfg.Emit(Message{Type: "event", Event: &p.ev})
	})
	return st
}

// classify extracts features over the node's current window and emits
// the prediction, feeding the summarizer.
func (p *Pipeline) classify(nodeID int, st *nodeState) {
	// Unroll the ring chronologically: head points at the oldest sample
	// once the window is full.
	for m, row := range st.rows {
		ring := st.ring[m*st.winN : (m+1)*st.winN]
		n := copy(row, ring[st.head:])
		copy(row[n:], ring[:st.head])
	}

	start := time.Now()
	x := p.extract.AppendRows(p.featBuf[:0], st.rows)
	p.featBuf = x
	if p.cfg.Telemetry != nil {
		p.cfg.Telemetry.ExtractNanos.Add(time.Since(start).Nanoseconds())
	}

	det := p.cfg.Detector
	if det.NFeatures > 0 && len(x) != det.NFeatures {
		p.err = fmt.Errorf("stream: window has %d features, model expects %d (metric sets differ)",
			len(x), det.NFeatures)
		return
	}

	start = time.Now()
	var k int
	conf := 1.0
	if p.votes != nil {
		p.votesBuf = p.votes.VotesInto(p.votesBuf[:0], x)
		k = argmax(p.votesBuf)
		conf = p.votesBuf[k]
	} else {
		k = det.Model.Predict(x)
	}
	if p.cfg.Telemetry != nil {
		p.cfg.Telemetry.PredictNanos.Add(time.Since(start).Nanoseconds())
		p.cfg.Telemetry.Windows.Add(1)
	}
	if k < 0 || k >= len(det.Classes) {
		p.err = fmt.Errorf("stream: prediction %d out of range", k)
		return
	}

	w := Window{
		Node:       nodeID,
		From:       float64(st.count-st.winN) * st.period,
		To:         float64(st.count) * st.period,
		Class:      det.Classes[k],
		Confidence: conf,
	}
	p.win = w
	p.cfg.Emit(Message{Type: "window", Window: &p.win})
	st.sum.Observe(w)
}

// Flush closes every node's open anomaly event, in cfg.Nodes order so
// the trailing event frames of two runs of one spec are identical; call
// once the run ends.
func (p *Pipeline) Flush() {
	for _, n := range p.cfg.Nodes {
		if st := p.nodes[n]; st != nil {
			st.sum.Flush()
		}
	}
}

// Err reports the first pipeline error (e.g. a feature-count mismatch
// between the detector and the monitored metric set); classification
// stops after it.
func (p *Pipeline) Err() error { return p.err }

// argmax returns the index of the maximum value, ties to the lower
// index (matching the ml package's prediction tie-break).
func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
