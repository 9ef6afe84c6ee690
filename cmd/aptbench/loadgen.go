// aptbench -loadgen: replay a corpus of collected profiles against a
// live aptgetd and report serving throughput and latency percentiles.
// With no -addr it spins up an in-process server on a loopback port, so
// the mode doubles as the serving stack's end-to-end load test: N
// concurrent clients, each POSTing a profile and GETting the plans back,
// with every response checked for byte-level sanity.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aptget/internal/core"
	"aptget/internal/peaks"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

type loadgenOptions struct {
	Addr     string   // plan service base address; empty = in-process
	Clients  int      // concurrent clients (closed loop)
	Requests int      // total requests across all clients
	Corpus   []string // workload keys to replay
	Quick    bool     // restrict the corpus to its first key

	// Rate > 0 switches to open-loop arrivals: requests arrive as a
	// Poisson process at Rate req/s regardless of completions (each in
	// its own goroutine, up to maxOutstanding), so the run measures how
	// the service behaves at a fixed *offered* load — including the drop
	// and reject rate — instead of letting slow responses throttle the
	// generator. Clients is ignored in this mode.
	Rate float64
	// Seed makes the Poisson arrival sequence reproducible (0 → 1).
	Seed int64

	// Relocate != 0 turns the run into the stale-shape scenario: the
	// cache is warmed with each original profile, then every PC in the
	// corpus (loads and LBR endpoints) is shifted by this constant — the
	// same binary re-linked at a different base — and the shifted
	// profiles are replayed. Their fingerprints are all new, but their
	// loop shapes are not, so the measured run must be served entirely
	// from stale-shape matches: a single "miss" outcome fails the run.
	Relocate uint64
}

// maxOutstanding caps concurrently in-flight open-loop requests. An
// arrival past the cap is dropped and counted: the client gave up, the
// open-loop equivalent of a queue overflow.
const maxOutstanding = 1024

// corpusItem is one replayable profile: the canonical POST body and the
// fingerprint the plans come back under.
type corpusItem struct {
	app  string
	body []byte
	fp   wire.Fingerprint
}

// loadgenStats is the measurement a load run produces, independent of
// the printed report (the serve benchmark reuses it).
type loadgenStats struct {
	OK, Rejected, Failed int64
	Dropped              int64 // open loop: arrivals past the outstanding cap
	Offered              float64
	Elapsed              time.Duration
	Latency              peaks.Summary    // per-request POST+GET milliseconds
	Outcomes             map[string]int64 // ingest outcome -> count (ok requests)
}

// DropRejectRate is the fraction of offered requests not served OK —
// the open-loop overload measurement.
func (s *loadgenStats) DropRejectRate() float64 {
	total := s.OK + s.Rejected + s.Failed + s.Dropped
	if total == 0 {
		return 0
	}
	return float64(s.Rejected+s.Dropped) / float64(total)
}

// runLoadgen drives the load, prints the report, and returns an error
// only for hard failures (unreachable server, corrupted responses).
// Backpressure rejections are measurement, not failure — they are
// reported and left to the caller to judge.
func runLoadgen(opt loadgenOptions, stdout io.Writer) (*loadgenStats, error) {
	if opt.Clients <= 0 {
		opt.Clients = 32
	}
	if opt.Requests <= 0 {
		opt.Requests = 256
	}
	if opt.Quick && len(opt.Corpus) > 1 {
		opt.Corpus = opt.Corpus[:1]
	}

	// Collect the corpus once up front; replay dominates the measurement.
	fmt.Fprintf(stdout, "loadgen: collecting %d profile(s): %s\n",
		len(opt.Corpus), strings.Join(opt.Corpus, ", "))
	corpus := make([]corpusItem, 0, len(opt.Corpus))
	for _, key := range opt.Corpus {
		e, ok := workloads.ByKey(key)
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown workload %q (use aptget -list)", key)
		}
		_, body, err := service.CollectProfile(e, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, corpusItem{
			app: key, body: body, fp: wire.FingerprintBytes(body),
		})
	}

	base := opt.Addr
	if base == "" {
		// In-process server, sized so the configured client count stays
		// below the backpressure limit (each client has one outstanding
		// request at a time).
		inflight := service.DefaultMaxInflight
		if 2*opt.Clients > inflight {
			inflight = 2 * opt.Clients
		}
		srv := service.New(service.Config{MaxInflight: inflight})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, ln) }()
		defer func() {
			cancel()
			<-done
		}()
		base = ln.Addr().String()
		fmt.Fprintf(stdout, "loadgen: in-process server on %s (inflight %d)\n",
			base, inflight)
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * opt.Clients,
			MaxIdleConnsPerHost: 2 * opt.Clients,
		},
		Timeout: 60 * time.Second,
	}

	if opt.Relocate != 0 {
		// Stale-shape scenario: warm the cache with the originals, then
		// replay a corpus whose every PC moved (same binary, new base).
		fmt.Fprintf(stdout, "loadgen: warming cache, then relocating corpus PCs by +%#x\n",
			opt.Relocate)
		for i := range corpus {
			if err := warmProfile(client, base, corpus[i]); err != nil {
				return nil, fmt.Errorf("loadgen: warmup %s: %w", corpus[i].app, err)
			}
			reloc, err := relocateProfile(corpus[i].body, opt.Relocate)
			if err != nil {
				return nil, fmt.Errorf("loadgen: relocating %s: %w", corpus[i].app, err)
			}
			corpus[i] = corpusItem{
				app: corpus[i].app, body: reloc, fp: wire.FingerprintBytes(reloc),
			}
		}
	}

	var (
		next      atomic.Int64 // request ticket dispenser
		ok        atomic.Int64
		rejected  atomic.Int64
		failed    atomic.Int64
		dropped   atomic.Int64 // open loop only
		outcomes  sync.Map     // outcome string -> *atomic.Int64
		latencyMu sync.Mutex
		latencies []float64 // per-request POST+GET milliseconds
		errMu     sync.Mutex
		firstErr  error
	)
	countOutcome := func(name string) {
		v, _ := outcomes.LoadOrStore(name, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	hardFail := func(err error) {
		failed.Add(1)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	oneRequest := func(item corpusItem) {
		start := time.Now()
		resp, err := client.Post(base+"/v1/profiles", "application/octet-stream",
			bytes.NewReader(item.body))
		if err != nil {
			hardFail(err)
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected.Add(1)
			return
		}
		var ing service.IngestResponse
		err = json.NewDecoder(resp.Body).Decode(&ing)
		resp.Body.Close()
		if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) {
			hardFail(fmt.Errorf("loadgen: ingest %s: status %d (%v)", item.app, resp.StatusCode, err))
			return
		}
		if ing.Fingerprint != string(item.fp) {
			hardFail(fmt.Errorf("loadgen: server fingerprinted %s as %s, client computed %s",
				item.app, ing.Fingerprint, item.fp))
			return
		}

		resp, err = client.Get(base + "/v1/plans/" + ing.Fingerprint)
		if err != nil {
			hardFail(err)
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected.Add(1)
			return
		}
		plans, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			hardFail(fmt.Errorf("loadgen: fetch plans %s: status %d (%v)", item.app, resp.StatusCode, err))
			return
		}
		if _, err := wire.DecodePlanSet(plans); err != nil {
			hardFail(fmt.Errorf("loadgen: served plans for %s are not canonical: %w", item.app, err))
			return
		}

		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		latencyMu.Lock()
		latencies = append(latencies, ms)
		latencyMu.Unlock()
		ok.Add(1)
		countOutcome(ing.Outcome)
	}

	var wg sync.WaitGroup
	var wall time.Time
	if opt.Rate > 0 {
		// Open loop: Poisson arrivals at the offered rate, each request in
		// its own goroutine. Arrivals finding maxOutstanding requests
		// already in flight are dropped, not queued — queuing would turn
		// the run back into a closed loop.
		seed := opt.Seed
		if seed == 0 {
			seed = 1
		}
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintf(stdout, "loadgen: open loop, %d arrivals at %.1f req/s (seed %d) -> %s\n",
			opt.Requests, opt.Rate, seed, base)
		sem := make(chan struct{}, maxOutstanding)
		wall = time.Now()
		arrival := wall
		for n := 0; n < opt.Requests; n++ {
			arrival = arrival.Add(time.Duration(rng.ExpFloat64() / opt.Rate * float64(time.Second)))
			if d := time.Until(arrival); d > 0 {
				time.Sleep(d)
			}
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(item corpusItem) {
					defer wg.Done()
					defer func() { <-sem }()
					oneRequest(item)
				}(corpus[n%len(corpus)])
			default:
				dropped.Add(1)
			}
		}
		wg.Wait()
	} else {
		fmt.Fprintf(stdout, "loadgen: %d requests, %d concurrent clients -> %s\n",
			opt.Requests, opt.Clients, base)
		wall = time.Now()
		for c := 0; c < opt.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := next.Add(1) - 1
					if n >= int64(opt.Requests) {
						return
					}
					oneRequest(corpus[int(n)%len(corpus)])
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(wall)

	sum := peaks.Summarize(latencies)
	fmt.Fprintf(stdout, "requests: %d ok, %d rejected (429), %d failed, %d dropped\n",
		ok.Load(), rejected.Load(), failed.Load(), dropped.Load())
	var outcomeParts []string
	for _, name := range []string{"miss", "hit", "stale_match"} {
		if v, loaded := outcomes.Load(name); loaded {
			outcomeParts = append(outcomeParts,
				fmt.Sprintf("%s=%d", name, v.(*atomic.Int64).Load()))
		}
	}
	fmt.Fprintf(stdout, "outcomes: %s\n", strings.Join(outcomeParts, " "))
	fmt.Fprintf(stdout, "throughput: %.1f req/s over %.2fs\n",
		float64(ok.Load())/elapsed.Seconds(), elapsed.Seconds())
	fmt.Fprintf(stdout,
		"latency ms (POST profile + GET plans): mean=%.2f P50=%.2f P90=%.2f P99=%.2f max=%.2f (n=%d)\n",
		sum.Mean, sum.P50, sum.P90, sum.P99, sum.Max, sum.N)

	stats := &loadgenStats{
		OK:       ok.Load(),
		Rejected: rejected.Load(),
		Failed:   failed.Load(),
		Dropped:  dropped.Load(),
		Offered:  opt.Rate,
		Elapsed:  elapsed,
		Latency:  sum,
		Outcomes: map[string]int64{},
	}
	outcomes.Range(func(k, v any) bool {
		stats.Outcomes[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	if opt.Rate > 0 {
		fmt.Fprintf(stdout, "open loop: offered %.1f req/s, achieved %.1f req/s, drop/reject rate %.2f%%\n",
			opt.Rate, float64(stats.OK)/elapsed.Seconds(), 100*stats.DropRejectRate())
	}
	if firstErr != nil {
		return stats, fmt.Errorf("%d request(s) failed hard; first: %w", failed.Load(), firstErr)
	}
	if opt.Relocate != 0 {
		if n := stats.Outcomes["miss"]; n > 0 {
			return stats, fmt.Errorf(
				"loadgen: %d relocated profile(s) re-ran analysis; stale-shape matching "+
					"should have served every one from the warmed cache", n)
		}
		fmt.Fprintf(stdout, "relocate: all %d relocated requests served without re-analysis\n",
			stats.OK)
	}
	return stats, nil
}

// warmProfile ingests one original profile and waits for its plans, so
// the relocated replay has a warm same-shape entry to match.
func warmProfile(client *http.Client, base string, item corpusItem) error {
	resp, err := client.Post(base+"/v1/profiles", "application/octet-stream",
		bytes.NewReader(item.body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("ingest status %d", resp.StatusCode)
	}
	resp, err = client.Get(base + "/v1/plans/" + string(item.fp))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("plans status %d", resp.StatusCode)
	}
	return nil
}

// relocateProfile shifts every PC in a canonical profile frame — the
// delinquent loads and both ends of every LBR entry — by delta,
// re-canonicalizes, and re-encodes. The result models the same binary
// loaded at a different base: new fingerprint, identical loop shape.
func relocateProfile(body []byte, delta uint64) ([]byte, error) {
	p, err := wire.DecodeProfile(body)
	if err != nil {
		return nil, err
	}
	for i := range p.Loads {
		p.Loads[i].PC += delta
	}
	for i := range p.Samples {
		for j := range p.Samples[i].Entries {
			p.Samples[i].Entries[j].From += delta
			p.Samples[i].Entries[j].To += delta
		}
	}
	p.Canonicalize()
	return wire.EncodeProfile(p), nil
}
