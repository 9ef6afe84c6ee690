package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"aptget/internal/core"
	"aptget/internal/lbr"
	"aptget/internal/obs"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

func mustEntry(t *testing.T, key string) workloads.Entry {
	t.Helper()
	e, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("workload %s not in registry", key)
	}
	return e
}

func mustCollect(t *testing.T, key string) (*wire.Profile, []byte) {
	t.Helper()
	wp, body, err := CollectProfile(mustEntry(t, key), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return wp, body
}

func postProfile(t *testing.T, ts *httptest.Server, body []byte) (int, IngestResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ir
}

func getPlans(t *testing.T, ts *httptest.Server, fp string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServedPlanMatchesPipeline is the acceptance criterion: the plan
// set the daemon serves for a profile is byte-identical to what the
// in-process core.RunPipeline computes for the same workload. Builds and
// the simulator are deterministic, so the two independently-collected
// profiles (and hence the two analyses) agree exactly. The daemon builds
// the program from Entry.Program, the pipeline from the generated
// dataset: IS has no graph pins, DFS pins its graph's size, and BC
// (most pins) also its source vertex and level count.
func TestServedPlanMatchesPipeline(t *testing.T) {
	for _, app := range []string{"IS", "DFS", "BC"} {
		t.Run(app, func(t *testing.T) {
			if testing.Short() && app != "IS" {
				t.Skip("two pipeline runs per app; slow in -short mode")
			}
			servedMatchesPipeline(t, app)
		})
	}
}

func servedMatchesPipeline(t *testing.T, app string) {
	cfg := core.DefaultConfig()
	res, err := core.RunPipeline(mustEntry(t, app).New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.EncodePlanSet(wire.PlanSetFromAnalysis(app, res.Plans, cfg.Analysis))

	_, body := mustCollect(t, app)
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	status, ing := postProfile(t, ts, body)
	if status != http.StatusCreated || ing.Outcome != "miss" {
		t.Fatalf("first ingest = %d %+v, want 201 miss", status, ing)
	}
	if ing.Plans == 0 {
		t.Fatal("ingest reported zero plans")
	}
	status, got := getPlans(t, ts, ing.Fingerprint)
	if status != http.StatusOK {
		t.Fatalf("GET plans = %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served plans differ from core.RunPipeline plans:\n got %d bytes\nwant %d bytes",
			len(got), len(want))
	}
	// Re-ingesting the identical profile is an exact hit.
	status, ing = postProfile(t, ts, body)
	if status != http.StatusOK || ing.Outcome != "hit" {
		t.Fatalf("repeat ingest = %d %+v, want 200 hit", status, ing)
	}
}

// TestSingleFlightConcurrentIngest: 64 concurrent POSTs of the same
// profile run the analysis exactly once — asserted both through the
// reported outcomes and by counting analysis spans in the obs registry.
func TestSingleFlightConcurrentIngest(t *testing.T) {
	const app = "IS"
	_, body := mustCollect(t, app) // collect before enabling obs

	obs.Enable()
	obs.Reset()
	defer obs.Disable()

	srv := New(Config{MaxInflight: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 64
	statuses := make([]int, n)
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/profiles",
				"application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var ir IngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Error(err)
				return
			}
			statuses[i] = resp.StatusCode
			outcomes[i] = ir.Outcome
		}(i)
	}
	wg.Wait()

	miss, hit := 0, 0
	for i := range outcomes {
		switch outcomes[i] {
		case "miss":
			miss++
		case "hit":
			hit++
		default:
			t.Fatalf("request %d: status %d outcome %q", i, statuses[i], outcomes[i])
		}
	}
	if miss != 1 || hit != n-1 {
		t.Fatalf("outcomes: %d miss / %d hit, want 1 / %d", miss, hit, n-1)
	}

	analyses := 0
	for _, rec := range obs.Snapshot().Records {
		if rec.Scope == "aptgetd/"+app && rec.Stage == obs.StageAnalysis {
			analyses++
		}
	}
	if analyses != 1 {
		t.Fatalf("daemon ran %d analyses for %d concurrent identical posts, want exactly 1",
			analyses, n)
	}

	m := getMetrics(t, ts)
	if m.Counters["plan_cache_misses"] != 1 || m.Counters["plan_cache_hits"] != int64(n-1) {
		t.Fatalf("metrics counters = %v", m.Counters)
	}
}

// driftPCs deep-copies the profile and shifts every raw PC, modeling a
// recompile that moved code but kept the loop structure.
func driftPCs(p *wire.Profile, delta uint64) *wire.Profile {
	out := &wire.Profile{
		App:          p.App,
		Cycles:       p.Cycles,
		Instructions: p.Instructions,
		Loops:        append([]wire.LoopShape(nil), p.Loops...),
	}
	for _, l := range p.Loads {
		l.PC += delta
		out.Loads = append(out.Loads, l)
	}
	for _, s := range p.Samples {
		entries := make([]lbr.Entry, len(s.Entries))
		for i, e := range s.Entries {
			entries[i] = lbr.Entry{From: e.From + delta, To: e.To + delta, Cycle: e.Cycle}
		}
		out.Samples = append(out.Samples, lbr.Sample{Cycle: s.Cycle, Entries: entries})
	}
	return out
}

// TestStaleProfileMatch: a profile whose PCs drifted but whose loop
// structure matches is served the prior plans verbatim, flagged
// stale_matched, without a second analysis.
func TestStaleProfileMatch(t *testing.T) {
	const app = "IS"
	wp, body := mustCollect(t, app)

	obs.Enable()
	obs.Reset()
	defer obs.Disable()

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	status, orig := postProfile(t, ts, body)
	if status != http.StatusCreated {
		t.Fatalf("original ingest = %d", status)
	}

	driftBody := wire.EncodeProfile(driftPCs(wp, 4096))
	if bytes.Equal(driftBody, body) {
		t.Fatal("drifted profile encoded identically; test is vacuous")
	}
	status, drifted := postProfile(t, ts, driftBody)
	if status != http.StatusOK {
		t.Fatalf("drifted ingest = %d", status)
	}
	if !drifted.StaleMatched || drifted.Outcome != "stale_match" {
		t.Fatalf("drifted ingest = %+v, want stale match", drifted)
	}
	if drifted.Fingerprint == orig.Fingerprint {
		t.Fatal("drifted profile kept the original fingerprint")
	}
	if drifted.ShapeHash != orig.ShapeHash {
		t.Fatal("PC drift changed the shape hash")
	}
	if drifted.SourceFingerprint != orig.Fingerprint {
		t.Fatalf("stale match source = %q, want %q",
			drifted.SourceFingerprint, orig.Fingerprint)
	}

	// Both fingerprints now address the same bytes.
	_, origPlans := getPlans(t, ts, orig.Fingerprint)
	s2, driftPlans := getPlans(t, ts, drifted.Fingerprint)
	if s2 != http.StatusOK || !bytes.Equal(origPlans, driftPlans) {
		t.Fatalf("stale-matched fingerprint serves different bytes (status %d)", s2)
	}

	analyses := 0
	for _, rec := range obs.Snapshot().Records {
		if rec.Scope == "aptgetd/"+app && rec.Stage == obs.StageAnalysis {
			analyses++
		}
	}
	if analyses != 1 {
		t.Fatalf("stale match ran the analysis again (%d analyses)", analyses)
	}
}

// TestBackpressure429: with MaxInflight=1 occupied by a stalled request,
// the next request is rejected immediately with 429 and counted.
func TestBackpressure429(t *testing.T) {
	srv := New(Config{MaxInflight: 1, RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot: a POST that claims a body it never sends
	// holds the semaphore inside the handler's body read.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/profiles HTTP/1.1\r\nHost: t\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 65536\r\n\r\nAPTW")

	// The stalled request needs a moment to enter the handler; retry
	// until the slot is observably held. A probe that finds the slot
	// free gets 400 (garbage frame), one that finds it held gets 429.
	deadline := time.Now().Add(5 * time.Second)
	saw429 := false
	for time.Now().Before(deadline) {
		resp, err := http.Post(ts.URL+"/v1/profiles",
			"application/octet-stream", strings.NewReader("garbage"))
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if status == http.StatusTooManyRequests {
			if retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
			saw429 = true
			break
		}
		if status != http.StatusBadRequest {
			t.Fatalf("probe status = %d, want 400 or 429", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw429 {
		t.Fatal("never observed backpressure rejection")
	}

	m := getMetrics(t, ts)
	if m.Counters["requests_rejected_backpressure"] < 1 {
		t.Fatalf("rejection not counted: %v", m.Counters)
	}
}

// TestRequestTimeout: a request whose processing outlives RequestTimeout
// gets 503 from the timeout wrapper. The deadline is far below even the
// frame-decode time, so any ingest trips it.
func TestRequestTimeout(t *testing.T) {
	_, body := mustCollect(t, "IS")
	srv := New(Config{RequestTimeout: time.Microsecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow ingest = %d, want 503", resp.StatusCode)
	}
	payload, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(payload), "timed out") {
		t.Fatalf("timeout body = %q", payload)
	}
}

// TestServeGracefulShutdown: Serve runs until the context is cancelled
// and then returns nil after draining.
func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New(Config{}).Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/v1/healthz"
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

// readTracker counts Reads so a test can assert a body was never
// consumed.
type readTracker struct {
	r     io.Reader
	reads int
}

func (rt *readTracker) Read(p []byte) (int, error) {
	rt.reads++
	return rt.r.Read(p)
}

func TestErrorPaths(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 1024}).Handler())
	defer ts.Close()

	// Garbage frame → 400.
	if status, _ := postProfile(t, ts, []byte("not a frame")); status != http.StatusBadRequest {
		t.Fatalf("garbage ingest = %d, want 400", status)
	}
	// Unknown application → 422.
	unknown := wire.EncodeProfile(&wire.Profile{App: "no-such-app", Cycles: 1})
	if status, _ := postProfile(t, ts, unknown); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown app ingest = %d, want 422", status)
	}
	// Oversized body → 413.
	big := bytes.Repeat([]byte("x"), 4096)
	if status, _ := postProfile(t, ts, big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413", status)
	}
	// Unknown fingerprint → 404.
	if status, _ := getPlans(t, ts, "deadbeefdeadbeefdeadbeefdeadbeef"); status != http.StatusNotFound {
		t.Fatalf("missing plans = %d, want 404", status)
	}
	// Over-limit declared Content-Length → 413 before the body is read.
	// Drive the handler directly so no client transport touches the body:
	// the handler must reject on the declared length alone.
	tracked := &readTracker{r: bytes.NewReader(bytes.Repeat([]byte("x"), 4096))}
	req := httptest.NewRequest(http.MethodPost, "/v1/profiles", tracked)
	req.ContentLength = 4096
	rec := httptest.NewRecorder()
	New(Config{MaxBodyBytes: 1024}).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared-oversize ingest = %d, want 413", rec.Code)
	}
	if tracked.reads != 0 {
		t.Fatalf("declared-oversize ingest read the body %d times, want 0", tracked.reads)
	}
	// Wrong method → 405 (Go 1.22 method patterns).
	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/profiles = %d, want 405", resp.StatusCode)
	}
}

// TestMetricsReportOversize: with the obs registry off (the daemon
// default), /v1/metrics reports oversize rejections.
func TestMetricsReportOversize(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry must be off for this test")
	}
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 16}).Handler())
	defer ts.Close()

	big := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 2; i++ {
		if st, _ := postProfile(t, ts, big); st != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize POST = %d, want 413", st)
		}
	}
	m := getMetrics(t, ts)
	if got, ok := m.Counters["requests_rejected_oversize"]; !ok || got != 2 {
		t.Errorf("counters[requests_rejected_oversize] = %d (present %v), want 2", got, ok)
	}
}

// TestMetricsOmitsObsHistory: with the obs registry on (aptgetd
// -report), /v1/metrics serves counters only. The registry keeps every
// analysis span for the report, so embedding it made each scrape grow
// with daemon uptime.
func TestMetricsOmitsObsHistory(t *testing.T) {
	apps := []string{"IS", "randAcc", "HJ2"}
	bodies := make([][]byte, len(apps))
	for i, app := range apps {
		_, bodies[i] = mustCollect(t, app) // collect before enabling obs
	}

	obs.Enable()
	obs.Reset()
	defer obs.Disable()

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for i, body := range bodies {
		if st, ing := postProfile(t, ts, body); st != http.StatusCreated || ing.Outcome != "miss" {
			t.Fatalf("%s ingest = %d %+v, want 201 miss", apps[i], st, ing)
		}
	}
	if n := len(obs.Snapshot().Records); n < len(apps) {
		t.Fatalf("obs registry holds %d records, want ≥%d analysis spans", n, len(apps))
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["obs"]; ok {
		t.Fatal("/v1/metrics embeds the obs span history")
	}
	var counters map[string]int64
	if err := json.Unmarshal(body["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	if counters["plan_cache_misses"] != int64(len(apps)) {
		t.Fatalf("counters = %v, want %d misses", counters, len(apps))
	}
}

// TestCPUProfileOutlivesRequestTimeout: /debug/pprof/profile is mounted
// outside the per-request deadline, so through the real Serve lifecycle
// a 2 s capture completes under a 300 ms RequestTimeout and returns a
// gzip-compressed pprof profile.
func TestCPUProfileOutlivesRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New(Config{RequestTimeout: 300 * time.Millisecond}).Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	start := time.Now()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/profile?seconds=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d (%s), want 200", resp.StatusCode, data)
	}
	if el := time.Since(start); el < 2*time.Second {
		t.Fatalf("capture returned after %s, before the requested 2 s window", el)
	}
	// A pprof profile is a gzip-compressed protobuf.
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("profile body (%d bytes) is not gzip: %v", len(data), err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("profile body decompresses to %d bytes (err %v)", len(raw), err)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWarmHitBytesIndependentOfProfileSize: a warm-hit POST decodes
// into a pooled decoder's kept buffers, so the bytes it allocates do not
// grow with the profile. The full IS profile and an eighth of its LBR
// snapshots are each ingested once (the miss), then posted repeatedly;
// a decode that allocated the profile would make the full profile's
// posts cost most of the two profiles' decoded-size difference more.
func TestWarmHitBytesIndependentOfProfileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	full, fullBody := mustCollect(t, "IS")
	small := *full
	small.Samples = full.Samples[:len(full.Samples)/8]
	smallBody := wire.EncodeProfile(&small)

	var h http.Handler
	post := func(body []byte, want int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("POST: status %d, want %d: %s", rec.Code, want, rec.Body)
		}
	}
	bytesPerHit := func(body []byte) float64 {
		// A fresh server each time: the two profiles share a loop shape,
		// so one server would stale-match the second.
		h = New(Config{}).Handler()
		post(body, http.StatusCreated)
		for i := 0; i < 3; i++ {
			post(body, http.StatusOK)
		}
		const n = 40
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			post(body, http.StatusOK)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	smallB, fullB := bytesPerHit(smallBody), bytesPerHit(fullBody)

	var entries int
	for _, s := range full.Samples[len(small.Samples):] {
		entries += len(s.Entries)
	}
	extra := float64(entries) * float64(unsafe.Sizeof(lbr.Entry{}))
	t.Logf("warm hit: %.0f B/op with %d snapshots, %.0f B/op with %d (decoded difference %.0f B)",
		smallB, len(small.Samples), fullB, len(full.Samples), extra)
	if fullB-smallB > extra/8 {
		t.Fatalf("warm hit allocates %.0f B/op more for the larger profile; its decoded entries differ by %.0f B",
			fullB-smallB, extra)
	}
}
