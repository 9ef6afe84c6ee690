package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"aptget/internal/core"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// fleet spins up n in-process shards and a router over them.
func fleet(t *testing.T, n int, shardCfg service.Config) (*Router, []*httptest.Server) {
	t.Helper()
	shards := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i] = httptest.NewServer(service.New(shardCfg).Handler())
		t.Cleanup(shards[i].Close)
		addrs[i] = shards[i].URL
	}
	rt, err := New(Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	return rt, shards
}

func collectBody(t *testing.T, app string) []byte {
	t.Helper()
	e, ok := workloads.ByKey(app)
	if !ok {
		t.Fatalf("workload %s not registered", app)
	}
	_, body, err := service.CollectProfile(e, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRoutedIngestAndFetchAgree: an ingest through the router and the
// follow-up plan fetch land on the same shard, and the plans come back
// byte-identical to asking that shard directly.
func TestRoutedIngestAndFetchAgree(t *testing.T) {
	rt, _ := fleet(t, 3, service.Config{})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	body := collectBody(t, "IS")
	fp := string(wire.FingerprintBytes(body))

	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ingShard := resp.Header.Get(HeaderShard)
	var ing service.IngestResponse
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || ing.Outcome != "miss" {
		t.Fatalf("routed ingest = %d %+v", resp.StatusCode, ing)
	}
	if ing.Fingerprint != fp {
		t.Fatalf("router keyed on %s but shard computed %s", fp, ing.Fingerprint)
	}
	if want := rt.Ring().Owner(fp); ingShard != want {
		t.Fatalf("ingest served by %s, ring owner is %s", ingShard, want)
	}

	get, err := http.Get(ts.URL + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	plans, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK || get.Header.Get(HeaderShard) != ingShard {
		t.Fatalf("routed GET = %d via %s, want 200 via %s",
			get.StatusCode, get.Header.Get(HeaderShard), ingShard)
	}

	direct, err := http.Get(ingShard + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	directPlans, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	if !bytes.Equal(plans, directPlans) {
		t.Fatal("routed plans differ from the owning shard's")
	}
}

// TestFailoverToNextRingMember: killing the owner mid-run degrades to
// the next shard answering — the client sees 404/2xx, never a 502 — and
// the successor's re-analysis serves the plans a live single server
// computes, byte for byte.
func TestFailoverToNextRingMember(t *testing.T) {
	rt, shards := fleet(t, 3, service.Config{})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	body := collectBody(t, "IS")
	fp := string(wire.FingerprintBytes(body))
	owner := rt.Ring().Owner(fp)
	for _, s := range shards {
		if s.URL == owner {
			s.Close()
		}
	}

	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest with dead owner = %d, want 201 from a successor", resp.StatusCode)
	}
	successor := rt.Ring().Successors(fp, 2)[1]
	if got := resp.Header.Get(HeaderShard); got != successor {
		t.Fatalf("served by %s, want the owner's first successor", got)
	}
	if rt.Counters()["router_failovers"] == 0 {
		t.Fatal("failover not counted")
	}

	get, err := http.Get(ts.URL + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	plans, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK || get.Header.Get(HeaderShard) != successor {
		t.Fatalf("routed GET with dead owner = %d via %s, want 200 via %s",
			get.StatusCode, get.Header.Get(HeaderShard), successor)
	}

	single := httptest.NewServer(service.New(service.Config{}).Handler())
	defer single.Close()
	ing, err := http.Post(single.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ing.Body.Close()
	ref, err := http.Get(single.URL + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(ref.Body)
	ref.Body.Close()
	if ref.StatusCode != http.StatusOK || !bytes.Equal(plans, want) {
		t.Fatalf("failover plans (%d bytes) differ from a single server's (%d, %d bytes)",
			len(plans), ref.StatusCode, len(want))
	}
}

// TestAllShardsDown502: with no shard answering, the router reports the
// failure instead of hanging.
func TestAllShardsDown502(t *testing.T) {
	rt, shards := fleet(t, 2, service.Config{})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	for _, s := range shards {
		s.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/plans/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("GET with fleet down = %d, want 502", resp.StatusCode)
	}
}

// TestShardVerdictsAreNotFailures: a 404 from the owner is the answer,
// not a reason to try other shards.
func TestShardVerdictsAreNotFailures(t *testing.T) {
	rt, _ := fleet(t, 3, service.Config{})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/plans/0000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing plans through router = %d, want 404", resp.StatusCode)
	}
	if rt.Counters()["router_failovers"] != 0 {
		t.Fatal("a 404 verdict must not trigger failover")
	}
}

// TestFleetMetricsAndHealth: /v1/metrics sums shard counters fleet-wide
// and /v1/healthz degrades (but stays 200) while ≥1 shard lives.
func TestFleetMetricsAndHealth(t *testing.T) {
	rt, shards := fleet(t, 3, service.Config{})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	body := collectBody(t, "IS")
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var m MetricsResponse
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if m.Fleet["plan_cache_misses"] != 1 {
		t.Fatalf("fleet-wide misses = %d, want 1: %v", m.Fleet["plan_cache_misses"], m.Fleet)
	}
	if m.Router["router_requests_proxied"] != 1 {
		t.Fatalf("router counters = %v", m.Router)
	}
	if len(m.PerShard) != 3 {
		t.Fatalf("per-shard counters for %d shards, want 3", len(m.PerShard))
	}

	var h struct {
		Status      string `json:"status"`
		ShardsAlive int    `json:"shards_alive"`
	}
	hc := func() (int, string, int) {
		hresp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		json.NewDecoder(hresp.Body).Decode(&h)
		return hresp.StatusCode, h.Status, h.ShardsAlive
	}
	if code, status, alive := hc(); code != 200 || status != "ok" || alive != 3 {
		t.Fatalf("healthy fleet = %d %s %d", code, status, alive)
	}
	shards[0].Close()
	if code, status, alive := hc(); code != 200 || status != "degraded" || alive != 2 {
		t.Fatalf("degraded fleet = %d %s %d, want 200 degraded 2", code, status, alive)
	}
	shards[1].Close()
	shards[2].Close()
	if code, status, _ := hc(); code != http.StatusServiceUnavailable || status != "down" {
		t.Fatalf("dead fleet = %d %s, want 503 down", code, status)
	}
}

// serve runs rt behind its own Serve lifecycle (the read deadlines
// live there, not in the handler) and returns its address; the server
// stops when the test ends.
func serve(t *testing.T, rt *Router) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// settledGoroutines waits until the goroutine count holds still for
// 50 ms (the server's accept loop has started, earlier tests' idle
// connections have wound down) and returns it.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 5 {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestStalledUploadIsCut: a client that sends headers and part of a
// body, then stalls, is disconnected within a few upstream timeouts and
// leaves no goroutine behind. Without a read deadline the buffering
// ingest handler waited on the body forever.
func TestStalledUploadIsCut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	rt, err := New(Config{Shards: []string{"127.0.0.1:1"}, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	addr := serve(t, rt)
	baseline := settledGoroutines()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := "POST /v1/profiles HTTP/1.1\r\nHost: router\r\n" +
		"Content-Type: application/octet-stream\r\nContent-Length: 1048576\r\n\r\n"
	if _, err := conn.Write(append([]byte(head), make([]byte, 4096)...)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * timeout))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("router kept a stalled upload open for %v: %v", time.Since(start), err)
	}
	t.Logf("stalled upload cut after %v", time.Since(start))

	for deadline := time.Now().Add(5 * timeout); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the stalled upload, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverPastHungShard: an owner that accepts the request and never
// answers costs one upstream timeout, then the next ring member serves
// it. The read deadline that cuts stalled uploads must not also cancel
// the request while the router waits on its shards.
func TestFailoverPastHungShard(t *testing.T) {
	const timeout = 300 * time.Millisecond
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "plans")
	}))
	defer live.Close()

	rt, err := New(Config{Shards: []string{hung.URL, live.URL}, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, rt)
	fp := ""
	for i := 0; fp == ""; i++ {
		if k := fmt.Sprintf("%040x", i); rt.Ring().Owner(k) == hung.URL {
			fp = k
		}
	}

	resp, err := http.Get("http://" + addr + "/v1/plans/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderShard) != live.URL {
		t.Fatalf("GET with a hung owner = %d via %q (%s), want 200 via %s",
			resp.StatusCode, resp.Header.Get(HeaderShard), body, live.URL)
	}
	if rt.Counters()["router_failovers"] != 1 {
		t.Fatalf("router counters = %v, want one failover", rt.Counters())
	}
}

// TestMetricsCounterNames pins the counter names the fleet serves: a
// counter that disappears, or lingers after its feature is gone, fails
// here instead of going unnoticed on dashboards.
func TestMetricsCounterNames(t *testing.T) {
	shard := httptest.NewServer(service.New(service.Config{}).Handler())
	defer shard.Close()
	rt, err := New(Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
		bytes.NewReader(collectBody(t, "IS")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest = %d, want 201", resp.StatusCode)
	}

	wantShard := []string{
		"plan_cache_evictions", "plan_cache_hits", "plan_cache_misses",
		"plan_cache_stale_matches",
		"requests_rejected_backpressure", "requests_rejected_oversize",
	}
	wantRouter := []string{
		"router_failovers", "router_requests_failed", "router_requests_proxied",
	}
	names := func(m map[string]int64) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	var sm service.MetricsResponse
	sresp, err := http.Get(shard.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(sresp.Body).Decode(&sm)
	sresp.Body.Close()
	if got := names(sm.Counters); !slices.Equal(got, wantShard) {
		t.Errorf("shard counters = %v, want %v", got, wantShard)
	}

	var m MetricsResponse
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if got := names(m.Fleet); !slices.Equal(got, wantShard) {
		t.Errorf("fleet counters = %v, want %v", got, wantShard)
	}
	if got := names(m.Router); !slices.Equal(got, wantRouter) {
		t.Errorf("router counters = %v, want %v", got, wantRouter)
	}
}
