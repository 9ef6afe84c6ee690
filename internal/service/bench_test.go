package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"aptget/internal/core"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// BenchmarkHotMiss is the daemon's cache-miss path as one layer: a fixed
// G500 profile window (LBR period 99 000 cycles, one of perfbench
// serve-cold's windows) POSTed over HTTP to a fresh server each
// iteration, so every request misses — program build, load selection,
// analysis, plan encoding and the store write. The window is collected,
// and each server started and stopped, outside the timer.
func BenchmarkHotMiss(b *testing.B) {
	e, ok := workloads.ByKey("G500")
	if !ok {
		b.Fatal("no G500 workload")
	}
	cfg := core.DefaultConfig()
	cfg.Profile.SamplePeriod = 99_000
	_, body, err := CollectProfile(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Config{}).Handler())
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.StopTimer()
		ts.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("ingest = %d, want 201 miss", resp.StatusCode)
		}
		b.StartTimer()
	}
}

// hitWindows are perfbench's six hit-path windows (DFS, G500 and BFS at
// LBR periods 99 000 and 101 000 cycles), collected once per test
// binary: the benchmark function runs once per b.N probe.
var hitWindows = sync.OnceValues(func() ([][]byte, error) {
	var bodies [][]byte
	for _, app := range []string{"DFS", "G500", "BFS"} {
		e, ok := workloads.ByKey(app)
		if !ok {
			return nil, fmt.Errorf("no %s workload", app)
		}
		for _, period := range []uint64{99_000, 101_000} {
			cfg := core.DefaultConfig()
			cfg.Profile.SamplePeriod = period
			_, body, err := CollectProfile(e, cfg)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
	}
	return bodies, nil
})

// BenchmarkHotHit is the daemon's warm hit path as one layer: a POST of
// a profile window the server has already answered, then the GET of its
// plans, over HTTP, cycling through the six windows. Each app's second
// window was a stale match when it was first ingested, so it repeats as
// an exact hit with another source. Collecting and first ingesting the
// windows happen outside the timer.
func BenchmarkHotHit(b *testing.B) {
	bodies, err := hitWindows()
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	post := func(body []byte, want int) {
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("ingest = %d, want %d", resp.StatusCode, want)
		}
	}
	plansURL := make([]string, len(bodies))
	for i, body := range bodies {
		want := http.StatusCreated
		if i%2 == 1 {
			want = http.StatusOK // the app's second window stale-matches its first
		}
		post(body, want)
		plansURL[i] = ts.URL + "/v1/plans/" + string(wire.FingerprintBytes(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(bodies)
		post(bodies[w], http.StatusOK)
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
