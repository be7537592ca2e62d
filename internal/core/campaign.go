package core

import (
	"context"
	"fmt"
	"sort"

	"hpas/internal/trace"
)

// Campaign composes multiple anomaly injections into a timed variability
// pattern, the mechanism the paper describes for building "more
// complicated variability patterns by using multiple anomaly instances"
// (Section 3). A campaign is a list of phases; each phase injects its
// specs over [Start, Start+Duration) on top of a base run.
type Campaign struct {
	// Base describes the cluster, application, and monitoring setup.
	// Base.Anomalies are injected in addition to the phases.
	Base RunConfig
	// Phases are the timed injections.
	Phases []Phase
}

// Phase is one timed step of a campaign.
type Phase struct {
	// Label names the phase in the timeline.
	Label string
	// Start is the phase start in simulation seconds.
	Start float64
	// Duration is how long the phase's anomalies stay active.
	Duration float64
	// Specs are injected with their windows set to the phase bounds
	// (any Start/End already present on a spec is overridden).
	Specs []Spec
}

// Timeline summarizes which phases were active at each monitor sample,
// for labelling time series windows.
type Timeline struct {
	Period float64
	Labels []string // one per sample; "" when no phase is active
}

// LabelAt returns the active phase label at time t.
func (tl *Timeline) LabelAt(t float64) string {
	i := int(t / tl.Period)
	if i < 0 || i >= len(tl.Labels) {
		return ""
	}
	return tl.Labels[i]
}

// Windows returns the [from,to) sample windows of every contiguous
// labelled region, for per-phase feature extraction.
func (tl *Timeline) Windows() []struct {
	Label    string
	From, To float64
} {
	var out []struct {
		Label    string
		From, To float64
	}
	start := -1
	cur := ""
	flush := func(end int) {
		if start >= 0 && cur != "" {
			out = append(out, struct {
				Label    string
				From, To float64
			}{cur, float64(start) * tl.Period, float64(end) * tl.Period})
		}
	}
	for i, l := range tl.Labels {
		if l != cur {
			flush(i)
			start, cur = i, l
		}
	}
	flush(len(tl.Labels))
	return out
}

// CampaignResult is the outcome of a campaign run.
type CampaignResult struct {
	*RunResult
	Timeline Timeline
}

// Run executes the composed pattern and returns the run result plus a
// per-sample phase timeline. Phases may overlap; the timeline records
// the latest-starting active phase.
func (c *Campaign) Run() (*CampaignResult, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation (see RunContext on the run level):
// the context is checked every simulation tick and a cancelled campaign
// returns ctx.Err().
func (c *Campaign) RunContext(ctx context.Context) (*CampaignResult, error) {
	if len(c.Phases) == 0 {
		return nil, fmt.Errorf("core: campaign has no phases")
	}
	cfg := c.Base
	for _, ph := range c.Phases {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("core: phase %q has non-positive duration", ph.Label)
		}
		for _, s := range ph.Specs {
			s.Start = ph.Start
			s.End = ph.Start + ph.Duration
			cfg.Anomalies = append(cfg.Anomalies, s)
		}
	}
	// The run must cover every phase.
	end := 0.0
	for _, ph := range c.Phases {
		if e := ph.Start + ph.Duration; e > end {
			end = e
		}
	}
	if cfg.FixedSeconds < end {
		cfg.FixedSeconds = end
	}

	res, samples, err := runContext(ctx, cfg)
	if err != nil {
		return nil, err
	}

	period := cfg.SamplePeriod
	if period <= 0 {
		period = 1
	}
	tl := Timeline{Period: period, Labels: make([]string, samples)}
	// Later-starting phases win on overlap.
	phases := append([]Phase(nil), c.Phases...)
	sort.SliceStable(phases, func(a, b int) bool { return phases[a].Start < phases[b].Start })
	for _, ph := range phases {
		for i := range tl.Labels {
			t := float64(i) * period
			if t >= ph.Start && t < ph.Start+ph.Duration {
				tl.Labels[i] = ph.Label
			}
		}
	}
	return &CampaignResult{RunResult: res, Timeline: tl}, nil
}

// PhaseSeries extracts the sub-series of one metric covering the given
// phase label's first contiguous window, or nil when the label never
// became active or the run was tapped and kept no trace.
func (r *CampaignResult) PhaseSeries(nodeID int, metric, label string) *trace.Series {
	if r.Metrics == nil {
		return nil
	}
	for _, w := range r.Timeline.Windows() {
		if w.Label == label {
			s := r.Metrics[nodeID].Get(metric)
			if s == nil {
				return nil
			}
			return s.Slice(w.From, w.To)
		}
	}
	return nil
}
