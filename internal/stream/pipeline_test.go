package stream

import (
	"slices"
	"testing"

	"hpas/internal/diagnose"
	"hpas/internal/ml"
	"hpas/internal/monitor"
)

// meanThreshold is a stub classifier predicting class 1 when the first
// metric's mean feature exceeds the threshold. The feature layout per
// metric is [mean, std, min, max, p5, p25, p50, p75, p95, skew, kurt,
// slope], so index 0 is the first metric's mean.
type meanThreshold struct{ thresh float64 }

func (meanThreshold) Fit(*ml.Dataset, []int) error { return nil }
func (c meanThreshold) Predict(x []float64) int {
	if x[0] > c.thresh {
		return 1
	}
	return 0
}
func (c meanThreshold) VotesInto(dst, x []float64) []float64 {
	if x[0] > c.thresh {
		return append(dst[:0], 0.25, 0.75)
	}
	return append(dst[:0], 1, 0)
}

func stubDetector(window float64) *diagnose.Detector {
	return &diagnose.Detector{
		Model:   meanThreshold{thresh: 10},
		Classes: []string{"none", "hog"},
		Window:  window,
	}
}

// feed sends a constant-valued sample stream for n seconds at 1 Hz.
func feed(p *Pipeline, node int, value float64, n int, tOffset float64) {
	for i := 0; i < n; i++ {
		p.Observe(monitor.Sample{
			Node:   node,
			Time:   tOffset + float64(i+1),
			Period: 1,
			Names:  []string{"m::a"},
			Values: []float64{value},
		})
	}
}

func TestPipelineWindowsAndEvents(t *testing.T) {
	// Emit lends its message: keeping one means copying what it points to.
	var msgs []Message
	p, err := NewPipeline(PipelineConfig{
		Detector: stubDetector(5),
		Emit: func(m Message) {
			if m.Window != nil {
				w := *m.Window
				m.Window = &w
			}
			if m.Event != nil {
				ev := *m.Event
				m.Event = &ev
			}
			msgs = append(msgs, m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	feed(p, 0, 0, 10, 0)    // [0,10): quiet
	feed(p, 0, 100, 10, 10) // [10,20): hog
	feed(p, 0, 0, 10, 20)   // [20,30): quiet again
	p.Flush()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	var windows []Window
	var events []Event
	for _, m := range msgs {
		switch m.Type {
		case "window":
			windows = append(windows, *m.Window)
		case "event":
			events = append(events, *m.Event)
		}
	}
	if len(windows) != 6 {
		t.Fatalf("got %d windows, want 6: %+v", len(windows), windows)
	}
	wantClasses := []string{"none", "none", "hog", "hog", "none", "none"}
	for i, w := range windows {
		if w.Class != wantClasses[i] {
			t.Errorf("window %d ([%g,%g)) class = %q, want %q", i, w.From, w.To, w.Class, wantClasses[i])
		}
		if w.From != float64(i*5) || w.To != float64(i*5+5) {
			t.Errorf("window %d bounds [%g,%g), want [%d,%d)", i, w.From, w.To, i*5, i*5+5)
		}
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Class != "hog" || ev.Start != 10 || ev.End != 20 || ev.Windows != 2 || ev.Confidence != 0.75 {
		t.Fatalf("event = %+v, want hog [10,20) over 2 windows at 0.75", ev)
	}
}

func TestPipelineOverlappingStride(t *testing.T) {
	var windows int
	p, err := NewPipeline(PipelineConfig{
		Detector: stubDetector(4),
		Stride:   2,
		Emit: func(m Message) {
			if m.Type == "window" {
				windows++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(p, 0, 0, 10, 0)
	// Windows end at samples 4, 6, 8, 10.
	if windows != 4 {
		t.Fatalf("got %d windows with stride 2, want 4", windows)
	}
}

func TestPipelineIgnoresUnwatchedNodes(t *testing.T) {
	var msgs int
	p, err := NewPipeline(PipelineConfig{
		Detector: stubDetector(2),
		Nodes:    []int{1},
		Emit:     func(Message) { msgs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(p, 0, 100, 10, 0) // node 0 is not watched
	if msgs != 0 {
		t.Fatalf("unwatched node produced %d messages", msgs)
	}
	feed(p, 1, 100, 4, 0)
	if msgs == 0 {
		t.Fatal("watched node produced no messages")
	}
}

func TestPipelineFeatureMismatchStopsClassification(t *testing.T) {
	det := stubDetector(2)
	det.NFeatures = 999 // will not match a 1-metric window
	var msgs int
	p, err := NewPipeline(PipelineConfig{
		Detector: det,
		Emit:     func(Message) { msgs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(p, 0, 1, 6, 0)
	if p.Err() == nil {
		t.Fatal("expected feature-count mismatch error")
	}
	if msgs != 0 {
		t.Fatalf("mismatched pipeline still emitted %d messages", msgs)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := NewPipeline(PipelineConfig{Emit: func(Message) {}}); err == nil {
		t.Error("missing detector accepted")
	}
	if _, err := NewPipeline(PipelineConfig{Detector: stubDetector(5)}); err == nil {
		t.Error("missing emit sink accepted")
	}
	det := stubDetector(0) // no window on detector or config
	if _, err := NewPipeline(PipelineConfig{Detector: det, Emit: func(Message) {}}); err == nil {
		t.Error("non-positive window accepted")
	}
}

// Events still open when the run ends close in cfg.Nodes order, so two
// runs of one spec end in identical frames (Flush used to range over a
// map, and two nodes' trailing events swapped from run to run).
func TestPipelineFlushClosesEventsInNodeOrder(t *testing.T) {
	for _, nodes := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		for run := 0; run < 20; run++ {
			var tail []int
			p, err := NewPipeline(PipelineConfig{
				Detector: stubDetector(5),
				Nodes:    nodes,
				Emit: func(m Message) {
					if m.Type == "event" {
						tail = append(tail, m.Event.Node)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 0} { // arrival order is not flush order
				feed(p, n, 100, 10, 0) // hog until the end of the run
			}
			if len(tail) != 0 {
				t.Fatalf("events closed before Flush: %v", tail)
			}
			p.Flush()
			if !slices.Equal(tail, nodes) {
				t.Fatalf("run %d: trailing events for nodes %v, want %v", run, tail, nodes)
			}
		}
	}
}
