package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"aptget/internal/core"
	"aptget/internal/obs"
	"aptget/internal/service"
	"aptget/internal/workloads"
)

// syncBuffer lets the test read the daemon's stdout while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on ([0-9.:\[\]]+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, a cancel func, and the channel its exit status arrives on.
func startDaemon(t *testing.T, stdout *syncBuffer, extraArgs ...string) (string, context.CancelFunc, chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	var stderr syncBuffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(ctx, args, stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], cancel, done
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s",
		stdout.String(), stderr.String())
	return "", nil, nil
}

func TestBadFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestUnlistenableAddressIsRuntimeError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-addr", "256.0.0.1:1"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("bad address exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "aptgetd:") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

// TestLifecycle: the daemon announces its real address, answers healthz,
// and exits 0 on context cancellation.
func TestLifecycle(t *testing.T) {
	var stdout syncBuffer
	base, cancel, done := startDaemon(t, &stdout)

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0\nstdout: %s", code, stdout.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
	if !strings.Contains(stdout.String(), "shut down cleanly") {
		t.Fatalf("stdout missing shutdown line:\n%s", stdout.String())
	}
}

// TestReportAgreesWithMetrics: with -report, one ingest shows up both as
// one miss in the /v1/metrics counters and — after shutdown — as exactly
// one analysis span in the written obs report.
func TestReportAgreesWithMetrics(t *testing.T) {
	e, ok := workloads.ByKey("IS")
	if !ok {
		t.Fatal("IS not in registry")
	}
	_, body, err := service.CollectProfile(e, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	defer obs.Disable() // run() enables the registry for -report
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var stdout syncBuffer
	base, cancel, done := startDaemon(t, &stdout, "-report", reportPath)

	resp, err := http.Post(base+"/v1/profiles", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest = %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m service.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Counters["plan_cache_misses"] != 1 {
		t.Fatalf("metrics counters = %v", m.Counters)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit = %d\nstdout: %s", code, stdout.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit")
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	analyses := 0
	for _, rec := range rep.Records {
		if rec.Scope == "aptgetd/IS" && rec.Stage == obs.StageAnalysis {
			analyses++
		}
	}
	if analyses != 1 {
		t.Fatalf("report shows %d daemon analyses, want 1", analyses)
	}
}
