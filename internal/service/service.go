// Package service is aptgetd's HTTP layer: a small JSON-over-HTTP API
// that turns the in-process pipeline into a continuous-profiling plan
// service. Clients POST a wire-encoded profile (PEBS loads + LBR
// snapshots + loop shapes) and get back the fingerprint under which the
// derived plan set is cached; the plan bytes themselves are fetched by
// fingerprint, so a fleet of identical clients shares one analysis.
//
//	POST /v1/profiles        ingest a profile, return {fingerprint, outcome}
//	GET  /v1/plans/{fp}      fetch canonical plan-set bytes by fingerprint
//	GET  /v1/healthz         liveness + cache size
//	GET  /v1/metrics         plan-cache / backpressure counters
//	GET  /debug/pprof/profile  net/http/pprof CPU profile (?seconds=), the
//	                         file `go build -pgo` takes
//
// The server re-derives plans itself: workload builds are deterministic
// (core.Workload contract), so the profile only has to name the
// application — the daemon rebuilds the exact program the profile's PCs
// refer to and runs the same analysis.Analyze the in-process pipeline
// uses. A served plan set is therefore byte-identical to what
// core.RunPipeline would have computed locally.
//
// Admission control is a non-blocking semaphore: past MaxInflight
// concurrent profile/plan requests the server answers 429 immediately
// (counted as requests_rejected_backpressure) instead of queueing
// unboundedly. Every request also runs under a deadline
// (http.TimeoutHandler), and Serve drains connections gracefully on
// context cancellation. The CPU-profile route is the one exception to
// the per-request deadline: a capture legitimately runs for its whole
// ?seconds= window, so it gets its own, longer cap (maxCaptureWait).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/obs"
	"aptget/internal/planstore"
	"aptget/internal/profile"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// Defaults for zero Config fields.
const (
	DefaultMaxInflight    = 64
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 64 << 20
)

// HeaderSource on a GET /v1/plans/{fp} reply names the profile the
// served plans were computed from (differs from {fp} on stale matches).
const HeaderSource = "X-Apt-Source"

// maxCaptureWait bounds one /debug/pprof/profile request: 120 s of
// capture plus 15 s grace for writing the response. pprof.Profile takes
// any ?seconds=, so this keeps a hostile value from pinning a goroutine
// forever; a capture still running at the cap is cut short with a 503.
const maxCaptureWait = 135 * time.Second

// Config tunes the server. Zero values select defaults.
type Config struct {
	// CacheCapacity bounds the plan cache (≤0 → planstore.DefaultCapacity).
	CacheCapacity int

	// MaxInflight caps concurrently-served profile/plan requests; excess
	// requests are rejected with 429 rather than queued.
	MaxInflight int

	// RequestTimeout bounds one request end to end (including the
	// analysis a cache miss runs).
	RequestTimeout time.Duration

	// MaxBodyBytes caps the ingest payload.
	MaxBodyBytes int64
}

func (c *Config) fill() {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = planstore.DefaultCapacity
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
}

// Server is one plan-service instance: the cache, the admission
// semaphore, and the HTTP handler wired over them.
type Server struct {
	cfg Config
	// pipeline is core.DefaultConfig filled by core: the configuration
	// the in-process pipeline uses, which is what makes served plans
	// byte-identical to core.RunPipeline's.
	pipeline core.Config
	store    *planstore.Store
	sem      chan struct{}
	handler  http.Handler

	// compute is the cache-miss analysis: computePlans, or a stand-in a
	// test installs to hold a flight open.
	compute func(*wire.Profile) ([]byte, error)

	rejected atomic.Int64
	oversize atomic.Int64
}

// IngestResponse is the POST /v1/profiles reply.
type IngestResponse struct {
	App         string `json:"app"`
	Fingerprint string `json:"fingerprint"`
	ShapeHash   string `json:"shape_hash"`
	Plans       int    `json:"plans"`
	// Outcome is how the request was served: "miss" (this request ran
	// the analysis), "hit" (exact fingerprint, or a wait on the same
	// profile's in-flight analysis) or "stale_match".
	Outcome      string `json:"outcome"`
	StaleMatched bool   `json:"stale_matched"`
	// SourceFingerprint names the profile the served plans were computed
	// from; differs from Fingerprint only on stale matches.
	SourceFingerprint string `json:"source_fingerprint,omitempty"`
}

// MetricsResponse is the GET /v1/metrics reply: the plan-cache and
// backpressure counters.
type MetricsResponse struct {
	Counters map[string]int64 `json:"counters"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// New constructs a server.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		pipeline: core.DefaultConfig(),
		store:    planstore.New(cfg.CacheCapacity),
		sem:      make(chan struct{}, cfg.MaxInflight),
	}
	s.pipeline.Fill()
	s.compute = s.computePlans

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profiles", s.handleIngest)
	mux.HandleFunc("GET /v1/plans/{fp}", s.handlePlans)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)

	// The CPU profile mounts *outside* the request TimeoutHandler: a
	// capture runs for its whole ?seconds= window, which may exceed
	// RequestTimeout. The runtime allows one CPU capture at a time (a
	// concurrent request gets 500). Only this route is mounted, on our
	// own mux: the handlers net/http/pprof registers on
	// http.DefaultServeMux stay unreachable.
	root := http.NewServeMux()
	root.Handle("/", http.TimeoutHandler(mux, cfg.RequestTimeout,
		`{"error":"request timed out"}`))
	root.Handle("GET /debug/pprof/profile", http.TimeoutHandler(
		http.HandlerFunc(pprof.Profile), maxCaptureWait, `{"error":"profile capture timed out"}`))
	s.handler = root
	return s
}

// Handler returns the server's HTTP handler (routing + timeouts), for
// tests and embedding; Serve wraps it in a listener lifecycle.
func (s *Server) Handler() http.Handler { return s.handler }

// Counters merges the plan-cache counters with the server's own — the
// numbers /v1/metrics serves.
func (s *Server) Counters() map[string]int64 {
	c := s.store.Counters()
	c["requests_rejected_backpressure"] = s.rejected.Load()
	c["requests_rejected_oversize"] = s.oversize.Load()
	return c
}

// Close is a no-op: the server holds nothing beyond the listener Serve
// owns. Its caller is perfbench's traced serve replay
// (perfbench/traced_serve.go).
func (s *Server) Close() {}

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 5s to drain). Returns
// nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout also bounds body reads: a stalled upload holds an
		// admission slot that the handler-level timeout alone cannot
		// reclaim (the blocked body read pins the request).
		ReadTimeout: s.cfg.RequestTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc // srv.Serve has returned http.ErrServerClosed
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// acquire is the non-blocking admission check; release undoes it.
func (s *Server) acquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.sem }

// reject answers 429 and counts the rejection.
func (s *Server) reject(w http.ResponseWriter) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{Error: "server at capacity"})
}

// decoders pools the decode buffers an ingest whose hash finds no cached
// plans decodes into; with the wire package's body pool this keeps the
// warm-hit path free of allocations that grow with the profile. The
// pool is shared by every Server in the process, so a process that
// starts many servers keeps one set of buffers, not one per server.
var decoders = sync.Pool{New: func() any { return new(wire.Decoder) }}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.acquire() {
		s.reject(w)
		return
	}
	defer s.release()

	// Reject oversized uploads before reading a single body byte when the
	// client declares its length — the stream is never consumed.
	if r.ContentLength > s.cfg.MaxBodyBytes {
		s.oversize.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("declared body length %d exceeds limit %d",
				r.ContentLength, s.cfg.MaxBodyBytes),
		})
		return
	}

	// Read the whole body into a pooled buffer, hashing it as it
	// arrives. A malformed upload is buffered (up to MaxBodyBytes)
	// before the decoder rejects it, so ingest memory is bounded by
	// MaxInflight × MaxBodyBytes.
	body := wire.GetBody()
	defer body.Release()
	fp, err := body.Fill(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.oversize.Add(1)
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}

	// An exact repeat is answered from its hash, without decoding. Store
	// keys come only from frames the decoder accepted, Validate passed
	// and the registry knows, and the decoder accepts canonical frames
	// only, so a body whose hash is a stored fingerprint is that frame
	// (barring a 128-bit collision, which would already serve wrong
	// plans through GetOrCompute).
	if e, key, ok := s.store.Hit(fp); ok {
		writeIngest(w, key, e.Plans, planstore.Result{Outcome: planstore.OutcomeHit, Source: e.Source})
		return
	}

	// Everything else decodes the buffered frame. prof aliases the pooled
	// decoder's buffers and must not outlive this handler.
	dec := decoders.Get().(*wire.Decoder)
	defer decoders.Put(dec)
	prof, err := dec.DecodeProfile(body.Bytes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if err := prof.Validate(); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	if _, ok := workloads.ByKey(prof.App); !ok {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: fmt.Sprintf("unknown application %q", prof.App)})
		return
	}

	// The decoder accepted the frame, so it is canonical and fp is its
	// content address.
	key := planstore.Key{
		Profile: fp,
		Shape:   prof.ShapeHash(),
	}

	plans, res, err := s.store.GetOrCompute(key, func() ([]byte, error) {
		return s.compute(prof)
	})
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeIngest(w, key, plans, res)
}

// writeIngest writes the POST /v1/profiles reply for plans served under
// key. The app and plan count come from the plan-set header, so a hit
// answered before decoding replies exactly as a decoded request would.
func writeIngest(w http.ResponseWriter, key planstore.Key, plans []byte, res planstore.Result) {
	app, n, err := wire.PlanSetHeader(plans)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: fmt.Sprintf("cached plan set for %s: %v", key.Profile, err)})
		return
	}
	resp := IngestResponse{
		App:         app,
		Fingerprint: string(key.Profile),
		ShapeHash:   string(key.Shape),
		Plans:       n,
		Outcome:     res.Outcome.String(),
	}
	status := http.StatusOK
	if res.Outcome == planstore.OutcomeMiss {
		status = http.StatusCreated
	}
	if res.Outcome == planstore.OutcomeStaleMatch {
		resp.StaleMatched = true
	}
	if res.Source != key.Profile {
		resp.SourceFingerprint = string(res.Source)
	}
	writeJSON(w, status, resp)
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if !s.acquire() {
		s.reject(w)
		return
	}
	defer s.release()

	fp := wire.Fingerprint(r.PathValue("fp"))
	e, ok := s.store.Get(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("no plans for fingerprint %q", fp)})
		return
	}
	if e.Source != "" {
		w.Header().Set(HeaderSource, string(e.Source))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(e.Plans)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"cache_entries": s.store.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{Counters: s.Counters()})
}

// computePlans is the cache-miss path: build the named app's program
// (the deterministic build the profile's PCs refer to) and run the
// paper's analysis on the reconstructed profile. The analysis reads
// only the program's structure and the profile, so the program comes
// from Entry.Program's pinned scalars: no dataset is generated and no
// native reference runs. The analysis runs under an "aptgetd/<app>"
// span, so a report (and the single-flight tests) can count exactly
// how many analyses the daemon ran.
func (s *Server) computePlans(p *wire.Profile) ([]byte, error) {
	e, ok := workloads.ByKey(p.App)
	if !ok {
		return nil, fmt.Errorf("service: unknown application %q", p.App)
	}
	prog, err := e.Program()
	if err != nil {
		return nil, fmt.Errorf("service: rebuilding %s: %w", p.App, err)
	}
	sp := obs.Begin("aptgetd/"+p.App, obs.StageAnalysis)
	aopt := s.pipeline.Analysis
	aopt.Obs = sp
	prof := p.ToProfile()
	// Re-run the shared selection gate on the decoded loads: scores are
	// derived (stall × period / kilo-instruction), not wire fields, so
	// the server recomputes them — idempotent for a client-gated profile.
	prof.Loads = profile.SelectLoads(prof.Loads, prof.Counters.Instructions, s.pipeline.Profile)
	plans, err := analysis.Analyze(prog, prof, aopt)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("service: analyzing %s: %w", p.App, err)
	}
	return wire.EncodePlanSet(wire.PlanSetFromAnalysis(p.App, plans, aopt)), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
