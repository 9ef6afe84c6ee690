// Package router is the fleet front door: an HTTP proxy that routes
// plan-service requests to the shard owning each profile fingerprint on
// a consistent-hash ring.
//
// Routing is content-addressed: an ingest body is read once into a
// buffer from the pool the shards also draw from, and fingerprinted as
// it arrives (the same truncated SHA-256 the shards use as a cache key),
// so one profile always lands on one shard and the fleet's cache
// capacity adds instead of duplicating. Every forward attempt sends that
// same buffer. Plan fetches route by the fingerprint in the path, which
// by construction agrees with where the ingest went.
//
// On a shard failure (transport error or 5xx) the router retries the
// next distinct member in the key's ring order; this failover is the
// fleet's only recovery path. A killed shard degrades to slower
// responses — not errors — as its keyspace neighbors take over: the
// first ingest of each of its profiles is a miss on the successor, which
// re-runs the analysis and serves that key from its own cache after.
//
//	POST /v1/profiles   → owner shard (failover along the ring)
//	GET  /v1/plans/{fp} → owner shard (failover along the ring)
//	GET  /v1/metrics    → fan out to all shards; fleet-wide sums + per-shard
//	GET  /v1/healthz    → fleet liveness (200 while ≥1 shard answers)
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aptget/internal/ring"
	"aptget/internal/wire"
)

// Defaults for zero Config fields.
const (
	DefaultTimeout      = 30 * time.Second
	DefaultMaxBodyBytes = 64 << 20
)

// HeaderShard names the shard that served a proxied request, for
// debugging and the fleet smoke test.
const HeaderShard = "X-Apt-Shard"

// Config tunes the router. Zero values select defaults.
type Config struct {
	// Shards lists the fleet members (host:port or http URL). Required.
	Shards []string
	// VNodes is the virtual-node count per shard on the ring
	// (≤0 → ring.DefaultVirtualNodes).
	VNodes int
	// Retries caps how many distinct shards one request tries, owner
	// included (≤0 → all shards).
	Retries int
	// Timeout bounds one upstream attempt, and the reading of one
	// client request (headers and body) as the server's ReadTimeout.
	Timeout time.Duration
	// MaxBodyBytes caps the ingest payload the router will buffer for
	// fingerprinting and replay across retries.
	MaxBodyBytes int64
}

// Router proxies the plan-service API across a shard fleet.
type Router struct {
	cfg     Config
	ring    *ring.Ring
	bases   map[string]string // shard address → normalized base URL
	client  *http.Client
	handler http.Handler

	proxied, failovers, failed, oversize atomic.Int64
}

// MetricsResponse is the router's GET /v1/metrics reply: the shard
// counters summed fleet-wide, the router's own counters, and each
// shard's raw counters (shards that did not answer are null).
type MetricsResponse struct {
	Fleet    map[string]int64            `json:"fleet"`
	Router   map[string]int64            `json:"router"`
	PerShard map[string]map[string]int64 `json:"per_shard"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// New builds a router over cfg.Shards.
func New(cfg Config) (*Router, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	rg, err := ring.New(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	rt := &Router{
		cfg:    cfg,
		ring:   rg,
		bases:  make(map[string]string, len(cfg.Shards)),
		client: &http.Client{Timeout: cfg.Timeout},
	}
	for _, s := range rg.Members() {
		base := s
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		rt.bases[s] = strings.TrimRight(base, "/")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profiles", rt.handleIngest)
	mux.HandleFunc("GET /v1/plans/{fp}", rt.handlePlans)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	rt.handler = mux
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Ring exposes the routing ring (startup logging, tests).
func (rt *Router) Ring() *ring.Ring { return rt.ring }

// Counters exports the router's own counters.
func (rt *Router) Counters() map[string]int64 {
	return map[string]int64{
		"router_requests_proxied": rt.proxied.Load(),
		"router_failovers":        rt.failovers.Load(),
		"router_requests_failed":  rt.failed.Load(),
		// Uploads the router refused as too large; they never reach a
		// shard, so no shard counter shows them.
		"router_requests_rejected_oversize": rt.oversize.Load(),
	}
}

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully. Returns nil on a clean shutdown.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           rt.handler,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout also bounds body reads: the ingest handler buffers
		// the whole body, so a client that stalls mid-upload would
		// otherwise pin a goroutine and up to MaxBodyBytes of memory.
		ReadTimeout: rt.cfg.Timeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// maxDrain is how much of a failed shard's reply forward reads before
// closing it. Draining a short error body lets the connection be
// reused; a shard that keeps streaming must not hold up the failover.
const maxDrain = 4 << 10

// forward tries the shards in key's ring order, replaying the request
// until one answers. A shard "answers" with any complete response below
// 500 — 4xx is the shard's verdict on the request, not a shard failure.
// body is the ingest upload, nil for a bodiless request.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, path string, body *upload) {
	rt.proxied.Add(1)
	shards := rt.ring.Successors(key, rt.cfg.Retries)
	var lastErr error
	for i, shard := range shards {
		if i > 0 {
			rt.failovers.Add(1)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, rt.bases[shard]+path, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if body != nil {
			body.attach(req)
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			io.CopyN(io.Discard, resp.Body, maxDrain)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s: %s", shard, resp.Status)
			continue
		}
		h := w.Header()
		for _, k := range []string{"Content-Type", "Retry-After", "X-Apt-Source"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		h.Set(HeaderShard, shard)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	rt.failed.Add(1)
	writeJSON(w, http.StatusBadGateway, errorResponse{
		Error: fmt.Sprintf("all %d shards failed for key %s: %v", len(shards), key, lastErr),
	})
}

// upload is an ingest body the router holds while it forwards it. The
// transport may still read, and close, a request body after Do returns
// (a shard that answers before it reads the whole body), so the buffer
// is reference counted: the handler holds one reference, and every
// request body the transport is given holds one until it is closed.
// Whoever drops the last returns the buffer to the pool. A body the
// transport never closes leaves its buffer to the collector.
type upload struct {
	body *wire.Body
	refs atomic.Int32
}

// release drops one reference.
func (u *upload) release() {
	if u.refs.Add(-1) == 0 {
		u.body.Release()
	}
}

// attach gives req the upload as its body, and a GetBody so the
// transport can rewind it on a stale keep-alive connection.
func (u *upload) attach(req *http.Request) {
	req.ContentLength = int64(len(u.body.Bytes))
	if req.ContentLength == 0 {
		req.Body = http.NoBody
		return
	}
	req.Body = u.open()
	req.GetBody = func() (io.ReadCloser, error) { return u.open(), nil }
}

// open returns a reader over the bytes that holds a reference until
// it is closed.
func (u *upload) open() io.ReadCloser {
	u.refs.Add(1)
	return &uploadReader{u: u}
}

// uploadReader is one request body over an upload. Read and Close
// exclude each other, and a Read after Close fails, so no read can
// touch the buffer once this reader's reference is dropped.
type uploadReader struct {
	mu  sync.Mutex
	u   *upload // nil once closed
	off int
}

func (ur *uploadReader) Read(p []byte) (int, error) {
	ur.mu.Lock()
	defer ur.mu.Unlock()
	if ur.u == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	rest := ur.u.body.Bytes[ur.off:]
	if len(rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, rest)
	ur.off += n
	return n, nil
}

func (ur *uploadReader) Close() error {
	ur.mu.Lock()
	defer ur.mu.Unlock()
	if ur.u != nil {
		ur.u.release()
		ur.u = nil
	}
	return nil
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > rt.cfg.MaxBodyBytes {
		rt.oversize.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("declared body length %d exceeds limit %d",
				r.ContentLength, rt.cfg.MaxBodyBytes),
		})
		return
	}
	// The body must be buffered anyway to replay across failover; its
	// fingerprint, taken as it arrives, is the content address the shards
	// key their caches by and the routing key, so ingest and the
	// follow-up plan fetch land on the same shard.
	up := &upload{body: wire.GetBody()}
	up.refs.Store(1)
	defer up.release()
	fp, err := up.body.Fill(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			rt.oversize.Add(1)
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	rt.forward(w, r, string(fp), "/v1/profiles", up)
}

func (rt *Router) handlePlans(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	rt.forward(w, r, fp, "/v1/plans/"+fp, nil)
}

// fanout GETs path on every shard concurrently, returning each shard's
// decoded JSON body (nil for shards that failed).
func (rt *Router) fanout(ctx context.Context, path string) map[string]json.RawMessage {
	members := rt.ring.Members()
	out := make(map[string]json.RawMessage, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, shard := range members {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.bases[shard]+path, nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return
			}
			mu.Lock()
			out[shard] = data
			mu.Unlock()
		}(shard)
	}
	wg.Wait()
	return out
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	raw := rt.fanout(r.Context(), "/v1/metrics")
	resp := MetricsResponse{
		Fleet:    make(map[string]int64),
		Router:   rt.Counters(),
		PerShard: make(map[string]map[string]int64, len(rt.ring.Members())),
	}
	for _, shard := range rt.ring.Members() {
		data, ok := raw[shard]
		if !ok {
			resp.PerShard[shard] = nil
			continue
		}
		var m struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			resp.PerShard[shard] = nil
			continue
		}
		resp.PerShard[shard] = m.Counters
		for k, v := range m.Counters {
			resp.Fleet[k] += v
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	raw := rt.fanout(r.Context(), "/v1/healthz")
	alive := make([]string, 0, len(raw))
	for shard := range raw {
		alive = append(alive, shard)
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case len(alive) == 0:
		status, code = "down", http.StatusServiceUnavailable
	case len(alive) < len(rt.ring.Members()):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":       status,
		"shards":       len(rt.ring.Members()),
		"shards_alive": len(alive),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
