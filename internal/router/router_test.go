package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
