// Package obs is the pipeline's observability layer: named counters,
// wall/cycle timers and per-stage span tracing behind a process-global
// registry. Every stage of the APT-GET pipeline (profile → analysis →
// inject → execute) opens a span scoped to the application/variant it is
// working on and records what it saw — samples kept and dropped, peaks
// found, Equation 1/2 inputs, prefetches injected, PMU counters — so a
// distance or injection-site decision can be audited back to the measured
// LBR evidence that produced it.
//
// The registry is disabled by default and costs one atomic load per
// Begin when off (Begin returns a nil *Span and every Span method is
// nil-safe), so the instrumented hot paths pay nothing in normal runs.
// When enabled (aptbench -report / -trace, aptgetd -report), spans are
// appended under a mutex: internal/runner fans pipeline runs out over a
// worker pool, and concurrent Begin/End from pool goroutines is safe.
// Each span additionally guards its own counters, so the serving layer
// can mutate one long-lived span from concurrent request handlers while
// Snapshot reads it. Snapshot orders
// records deterministically by (scope, stage rank, begin sequence), so
// the exported report does not depend on worker interleaving.
//
// The package is intentionally dependency-free (stdlib only): every
// other pipeline package may import it without cycles.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stage names used by the core pipeline. Spans are not
// restricted to these, but Snapshot sorts them in this canonical order
// (unknown stages sort after, alphabetically).
const (
	StageProfile    = "profile"
	StageAnalysis   = "analysis"
	StageInject     = "inject"
	StageExecute    = "execute"
	StageExperiment = "experiment"
	// StageReplan scopes the online re-planning controller: windows
	// observed, degradation triggers, re-profiles and hot-swaps.
	StageReplan = "replan"
)

// stageRank orders the canonical stages in pipeline order for reports.
func stageRank(stage string) int {
	switch stage {
	case StageProfile:
		return 0
	case StageAnalysis:
		return 1
	case StageInject:
		return 2
	case StageExecute:
		return 3
	case StageExperiment:
		return 4
	}
	return 5
}

// PlanRecord is the per-plan provenance attached to analysis spans and
// to core pipeline results: every input of Equation (1) and Equation (2)
// alongside the decision they produced, so a consumer can re-derive (and
// assert on) *why* a distance or site was chosen.
type PlanRecord struct {
	LoadPC   uint64 `json:"load_pc"`
	Load     string `json:"load"` // debug label of the load
	Site     string `json:"site"` // "inner" | "outer"
	Distance int64  `json:"distance"`

	// Equation (1) inputs: distance = ceil(MC / IC).
	IC float64 `json:"ic_latency"`
	MC float64 `json:"mc_latency"`

	// Equation (2) inputs: inner injection covers enough only when
	// avg_trip ≥ K × inner_distance.
	AvgTrip float64 `json:"avg_trip"`
	K       int64   `json:"k"`

	// 2-D selection provenance: the stall-cycles-per-kilo-instruction
	// score the load was admitted with and its mean exposed latency per
	// sampled miss (zero for profiles without latency sampling).
	Score     float64 `json:"selection_score,omitempty"`
	MeanStall float64 `json:"mean_stall,omitempty"`

	InnerDistance int64 `json:"inner_distance"`
	OuterDistance int64 `json:"outer_distance,omitempty"`

	// Peak evidence: CWT peak positions (cycles) of the measured
	// latency distributions.
	PeaksInner []float64 `json:"peaks_inner,omitempty"`
	PeaksOuter []float64 `json:"peaks_outer,omitempty"`

	// LatencySamples is how many per-iteration latencies the inner
	// distribution was built from; DroppedNonMonotonic counts LBR cycle
	// deltas discarded because the snapshot was out of order or wrapped.
	LatencySamples      int `json:"latency_samples"`
	DroppedNonMonotonic int `json:"dropped_non_monotonic,omitempty"`

	// Histogram robustness counters: outliers clamped into the top bin
	// by the bin-count cap, NaN/±Inf samples dropped, and whether the
	// latency span hit the cap outright (degenerate distribution — the
	// plan fell back to distance 1).
	HistClampedOutliers  int  `json:"histogram_clamped_outliers,omitempty"`
	HistDroppedNonFinite int  `json:"histogram_dropped_nonfinite,omitempty"`
	HistDegenerateSpan   bool `json:"histogram_degenerate_span,omitempty"`

	// Fallback is the §3.6 fallback reason, empty when the analytical
	// model applied cleanly.
	Fallback string `json:"fallback,omitempty"`
}

// Span is one traced stage execution. A nil *Span is a valid no-op
// receiver for every method, which is what Begin returns while the
// registry is disabled.
type Span struct {
	Scope string // "<app>/<variant>" for pipeline stages, "exp/<id>" for experiments
	Stage string

	seq   uint64
	begin time.Time

	// mu guards the mutable fields: pipeline stages use a span from one
	// goroutine, but the serving layer mutates one long-lived span from
	// concurrent request handlers, and Snapshot may run while they do.
	mu       sync.Mutex
	wallNS   int64
	counters map[string]int64
	metrics  map[string]float64
	plans    []PlanRecord
	done     bool
}

// registry is the process-global span store.
var registry struct {
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []*Span
	seq     uint64
}

// Enable turns span collection on (aptbench -report / -trace).
func Enable() { registry.enabled.Store(true) }

// Disable turns span collection off; already-recorded spans are kept
// until Reset.
func Disable() { registry.enabled.Store(false) }

// Enabled reports whether spans are being collected.
func Enabled() bool { return registry.enabled.Load() }

// Reset discards all recorded spans (tests, repeated CLI runs).
func Reset() {
	registry.mu.Lock()
	registry.spans = nil
	registry.seq = 0
	registry.mu.Unlock()
}

// Begin opens a span for one stage execution and registers it. Returns
// nil (a no-op span) when the registry is disabled. Safe to call
// concurrently from runner pool workers.
func Begin(scope, stage string) *Span {
	if !registry.enabled.Load() {
		return nil
	}
	s := &Span{Scope: scope, Stage: stage, begin: time.Now()}
	registry.mu.Lock()
	registry.seq++
	s.seq = registry.seq
	registry.spans = append(registry.spans, s)
	registry.mu.Unlock()
	return s
}

// End closes the span, recording its wall time. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.wallNS = time.Since(s.begin).Nanoseconds()
		s.done = true
	}
	s.mu.Unlock()
}

// Add increments a named counter by delta.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// Set assigns a named counter.
func (s *Span) Set(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] = v
	s.mu.Unlock()
}

// SetAll copies every entry of m into the span's counters.
func (s *Span) SetAll(m map[string]int64) {
	if s == nil {
		return
	}
	for k, v := range m {
		s.Set(k, v)
	}
}

// SetMetric assigns a named derived metric (a float, e.g. IPC or MPKI).
func (s *Span) SetMetric(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.metrics == nil {
		s.metrics = make(map[string]float64)
	}
	s.metrics[name] = v
	s.mu.Unlock()
}

// AddPlan attaches one plan's provenance record to the span.
func (s *Span) AddPlan(p PlanRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.plans = append(s.plans, p)
	s.mu.Unlock()
}

// Timer starts a named wall-clock sub-timer; the returned stop function
// records the elapsed time as the counter "<name>_ns".
func (s *Span) Timer(name string) func() {
	if s == nil {
		return func() {}
	}
	start := time.Now()
	return func() { s.Set(name+"_ns", time.Since(start).Nanoseconds()) }
}

// Counters returns a copy of the span's counters — the serving layer's
// /v1/metrics endpoint reads a live span through this.
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}
