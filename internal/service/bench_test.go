package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"aptget/internal/core"
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
