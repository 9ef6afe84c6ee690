package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"aptget/internal/wire"
)

// TestAggregatedBurstCollapsesToOneAnalysis: K concurrent same-shape
// profiles inside the window produce one batch, every response marked
// aggregated, and plans for an identical burst stay byte-identical to
// unaggregated serving.
func TestAggregatedBurstCollapsesToOneAnalysis(t *testing.T) {
	wp, body := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	// Reference plans from an unaggregated server.
	plain := httptest.NewServer(New(Config{}).Handler())
	defer plain.Close()
	if status, _ := postProfile(t, plain, body); status != http.StatusCreated {
		t.Fatal("reference ingest failed")
	}
	_, want := getPlans(t, plain, string(fp))

	const k = 4
	srv := New(Config{AggregateWindow: k, AggregateWait: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	outcomes := make([]IngestResponse, k)
	statuses := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], outcomes[i] = postProfile(t, ts, body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < k; i++ {
		if statuses[i] != http.StatusCreated || outcomes[i].Outcome != "aggregated" || outcomes[i].Aggregated != k {
			t.Fatalf("burst member %d = %d %+v, want 201 aggregated/%d",
				i, statuses[i], outcomes[i], k)
		}
	}
	c := srv.Counters()
	if c["aggregate_batches"] != 1 || c["aggregate_saved_analyses"] != k-1 {
		t.Fatalf("aggregation counters = %v", c)
	}
	// Identical burst: merge dedups to the one distinct profile, so the
	// served plans are byte-identical to the unaggregated analysis.
	if _, got := getPlans(t, ts, string(fp)); !bytes.Equal(got, want) {
		t.Fatal("aggregated plans differ from unaggregated plans for an identical burst")
	}
	// After the window, a repeat ingest is a plain cache hit.
	if _, ing := postProfile(t, ts, body); ing.Outcome != "hit" {
		t.Fatalf("post-window ingest = %+v, want hit", ing)
	}
}

// TestAggregateDistinctProfilesMerge: distinct same-shape profiles in
// one window are merged — the batch reports the merged fingerprint as
// the plans' source.
func TestAggregateDistinctProfilesMerge(t *testing.T) {
	wp, _ := mustCollect(t, "IS")

	const k = 3
	bodies := make([][]byte, k)
	fps := make([]string, k)
	for i := 0; i < k; i++ {
		p := *wp
		p.Cycles += uint64(i) * 1000 // distinct content, identical shape
		bodies[i] = wire.EncodeProfile(&p)
		fps[i] = string(wire.FingerprintOf(&p))
	}

	srv := New(Config{AggregateWindow: k, AggregateWait: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	outs := make([]IngestResponse, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = postProfile(t, ts, bodies[i])
		}(i)
	}
	wg.Wait()

	src := outs[0].SourceFingerprint
	if src == "" {
		t.Fatalf("merged batch must report a source fingerprint: %+v", outs[0])
	}
	for i, o := range outs {
		if o.Outcome != "aggregated" || o.SourceFingerprint != src {
			t.Fatalf("member %d = %+v, want aggregated from %s", i, o, src)
		}
		if o.SourceFingerprint == fps[i] {
			t.Fatalf("member %d source equals its own fingerprint — no merge happened", i)
		}
	}
	// Every participant's fingerprint serves the shared plans.
	ref := ""
	for _, fp := range fps {
		st, got := getPlans(t, ts, fp)
		if st != http.StatusOK {
			t.Fatalf("GET %s = %d", fp, st)
		}
		if ref == "" {
			ref = string(got)
		} else if ref != string(got) {
			t.Fatal("participants serve different plans")
		}
	}
	if c := srv.Counters(); c["aggregate_batches"] != 1 {
		t.Fatalf("batches = %v", c)
	}
}

// TestAggregateWaitServesLoneProfile: a single profile is not held for
// the full window — the wait bound fires and serves it as a plain miss.
func TestAggregateWaitServesLoneProfile(t *testing.T) {
	_, body := mustCollect(t, "IS")
	srv := New(Config{AggregateWindow: 64, AggregateWait: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, ing := postProfile(t, ts, body)
	if status != http.StatusCreated || ing.Outcome != "miss" || ing.Aggregated != 0 {
		t.Fatalf("lone ingest = %d %+v, want 201 miss", status, ing)
	}
	if c := srv.Counters(); c["aggregate_wait_fires"] != 1 {
		t.Fatalf("wait fires = %v", c)
	}
}
