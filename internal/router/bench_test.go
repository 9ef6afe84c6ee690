package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"aptget/internal/core"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// BenchmarkHotRouterHit is the router hop as one layer: a warm POST of a
// profile window, then the GET of its plans, through the router to the
// two shards behind it, cycling through perfbench fleet-hit's six
// windows (DFS, G500 and BFS at LBR periods 99 000 and 101 000 cycles).
// The shards answer each request from their caches, so the time is the
// router's read, hash and forward plus two shard hits. Collecting and
// first ingesting the windows happen outside the timer.
func BenchmarkHotRouterHit(b *testing.B) {
	var bodies [][]byte
	for _, app := range []string{"DFS", "G500", "BFS"} {
		e, ok := workloads.ByKey(app)
		if !ok {
			b.Fatalf("no %s workload", app)
		}
		for _, period := range []uint64{99_000, 101_000} {
			cfg := core.DefaultConfig()
			cfg.Profile.SamplePeriod = period
			_, body, err := service.CollectProfile(e, cfg)
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	addrs := make([]string, 2)
	for i := range addrs {
		shard := httptest.NewServer(service.New(service.Config{}).Handler())
		defer shard.Close()
		addrs[i] = shard.URL
	}
	rt, err := New(Config{Shards: addrs})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	plansURL := make([]string, len(bodies))
	for i, body := range bodies {
		// An app's second window is a miss or a stale match, depending on
		// whether it lands on its first window's shard.
		if st := post(body); st != http.StatusCreated && st != http.StatusOK {
			b.Fatalf("first ingest = %d, want 201 or 200", st)
		}
		plansURL[i] = ts.URL + "/v1/plans/" + string(wire.FingerprintBytes(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(bodies)
		if st := post(bodies[w]); st != http.StatusOK {
			b.Fatalf("ingest = %d, want 200", st)
		}
		resp, err := http.Get(plansURL[w])
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET plans = %d, want 200", resp.StatusCode)
		}
	}
}
