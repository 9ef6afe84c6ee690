package main

// The serve-path half of -bench: where BENCH_substrate.json tracks the
// simulator substrate, BENCH_serve.json tracks the analysis + serving hot
// paths this repo optimizes — CWT peak detection over large histograms,
// wire encode/decode throughput, and the end-to-end in-process serving
// latency under concurrent load. Regenerate with:
//
//	go run ./cmd/aptbench -bench -quick
//
// (drop -quick for the committed full-sweep baselines).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"aptget/internal/core"
	"aptget/internal/peaks"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// CWTTiming is one ladder size's per-detection wall time.
type CWTTiming struct {
	Bins    int     `json:"bins"`
	Widths  int     `json:"widths"`
	MsPerOp float64 `json:"ms_per_op"`
}

// WireTiming is the profile codec's throughput on a real collected
// profile.
type WireTiming struct {
	App            string  `json:"app"`
	ProfileBytes   int     `json:"profile_bytes"`
	EncodeMBPerSec float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec float64 `json:"decode_mb_per_sec"`
}

// LoadgenTiming is the in-process serving stack under concurrent load.
type LoadgenTiming struct {
	Requests  int     `json:"requests"`
	Clients   int     `json:"clients"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// FleetTiming is the sharded serving stack under the same load: N
// shards behind an aptrouter, closed-loop for throughput plus an
// open-loop pass at the single-server's achieved rate for the
// drop/reject measurement. Speedup is fleet vs single req/s on this
// machine — in-process shards share one CPU, so it measures routing
// overhead and cache sharding, not N machines' worth of compute.
type FleetTiming struct {
	Shards                 int     `json:"shards"`
	Requests               int     `json:"requests"`
	Clients                int     `json:"clients"`
	ReqPerSec              float64 `json:"req_per_sec"`
	SpeedupVsSingle        float64 `json:"speedup_vs_single"`
	P50Ms                  float64 `json:"p50_ms"`
	P99Ms                  float64 `json:"p99_ms"`
	OpenLoopOfferedPerSec  float64 `json:"open_loop_offered_req_per_sec"`
	OpenLoopAchievedPerSec float64 `json:"open_loop_achieved_req_per_sec"`
	OpenLoopDropRejectRate float64 `json:"open_loop_drop_reject_rate"`
	AggregateSavedAnalyses int64   `json:"aggregate_saved_analyses"`
}

// ServeBenchReport is the schema of BENCH_serve.json.
type ServeBenchReport struct {
	GeneratedAt string        `json:"generated_at"`
	GitCommit   string        `json:"git_commit"`
	GoVersion   string        `json:"go_version"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Quick       bool          `json:"quick"`
	CWT         []CWTTiming   `json:"cwt"`
	Wire        WireTiming    `json:"wire"`
	Loadgen     LoadgenTiming `json:"loadgen"`
	Fleet       FleetTiming   `json:"fleet"`
}

// serveHistogram builds a multimodal latency-histogram lookalike: four
// gaussian populations plus a deterministic ripple, the same shape the
// peaks package benchmarks use.
func serveHistogram(n int) []float64 {
	out := make([]float64, n)
	centers := []float64{0.12, 0.35, 0.58, 0.85}
	heights := []float64{900, 1400, 700, 400}
	sigma := float64(n) / 90
	for i := range out {
		x := float64(i)
		for j, c := range centers {
			d := (x - c*float64(n)) / sigma
			out[i] += heights[j] * math.Exp(-d*d/2)
		}
	}
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] += float64(seed%97) / 10
	}
	return out
}

// serveLadderSizes picks the histogram sizes the CWT timing sweeps.
func serveLadderSizes(quick bool) []int {
	if quick {
		return []int{400, 2048}
	}
	return []int{400, 2048, 8192}
}

// timeCWT measures one full peak detection (ladder + ridge walk) at the
// given histogram size.
func timeCWT(bins int) CWTTiming {
	sig := serveHistogram(bins)
	maxW := bins / 8
	if maxW > peaks.MaxAutoWidth {
		maxW = peaks.MaxAutoWidth
	}
	widths := peaks.DefaultWidths(maxW)
	var iters int
	start := time.Now()
	for time.Since(start) < minBenchTime {
		peaks.FindPeaksCWT(sig, widths, peaks.Options{})
		iters++
	}
	return CWTTiming{
		Bins:    bins,
		Widths:  len(widths),
		MsPerOp: time.Since(start).Seconds() * 1e3 / float64(iters),
	}
}

// timeWire measures the codec round-trip throughput on a collected
// profile of the given workload.
func timeWire(app string) (WireTiming, error) {
	e, ok := workloads.ByKey(app)
	if !ok {
		return WireTiming{}, fmt.Errorf("serve bench: unknown workload %q", app)
	}
	_, body, err := service.CollectProfile(e, core.DefaultConfig())
	if err != nil {
		return WireTiming{}, err
	}
	prof, err := wire.DecodeProfile(body)
	if err != nil {
		return WireTiming{}, fmt.Errorf("serve bench: decode %s profile: %w", app, err)
	}

	var decIters int
	start := time.Now()
	for time.Since(start) < minBenchTime {
		if _, err := wire.DecodeProfile(body); err != nil {
			return WireTiming{}, err
		}
		decIters++
	}
	decRate := float64(len(body)*decIters) / time.Since(start).Seconds() / 1e6

	var encIters int
	start = time.Now()
	for time.Since(start) < minBenchTime {
		wire.EncodeProfile(prof)
		encIters++
	}
	encRate := float64(len(body)*encIters) / time.Since(start).Seconds() / 1e6

	return WireTiming{
		App:            app,
		ProfileBytes:   len(body),
		EncodeMBPerSec: encRate,
		DecodeMBPerSec: decRate,
	}, nil
}

// timeFleet measures the sharded serving stack: the single-server
// loadgen replayed through a 3-shard fleet behind a router (closed loop
// for throughput), then an open-loop pass at the single server's
// achieved rate to measure the drop/reject behavior at that offered
// load.
func timeFleet(single LoadgenTiming, lgOpt loadgenOptions) (FleetTiming, error) {
	const shards = 3
	fleet, err := startFleet(shards, 8, 50*time.Millisecond)
	if err != nil {
		return FleetTiming{}, err
	}
	defer fleet.Stop()

	lgOpt.Addr = fleet.RouterAddr
	stats, err := runLoadgen(lgOpt, io.Discard)
	if err != nil {
		return FleetTiming{}, err
	}
	ft := FleetTiming{
		Shards:          shards,
		Requests:        lgOpt.Requests,
		Clients:         lgOpt.Clients,
		ReqPerSec:       float64(stats.OK) / stats.Elapsed.Seconds(),
		P50Ms:           stats.Latency.P50,
		P99Ms:           stats.Latency.P99,
		SpeedupVsSingle: 0,
	}
	if single.ReqPerSec > 0 {
		ft.SpeedupVsSingle = ft.ReqPerSec / single.ReqPerSec
	}

	// Open-loop pass against the now-warm fleet: offer the single
	// server's achieved rate and record what the fleet drops or rejects.
	open := lgOpt
	open.Rate = single.ReqPerSec
	if open.Rate <= 0 {
		open.Rate = 100
	}
	open.Seed = 1
	ostats, err := runLoadgen(open, io.Discard)
	if err != nil {
		return FleetTiming{}, err
	}
	ft.OpenLoopOfferedPerSec = open.Rate
	ft.OpenLoopAchievedPerSec = float64(ostats.OK) / ostats.Elapsed.Seconds()
	ft.OpenLoopDropRejectRate = ostats.DropRejectRate()
	ft.AggregateSavedAnalyses = fleet.Counters()["aggregate_saved_analyses"]
	return ft, nil
}

// runServeBench measures the serve-path hot paths and writes the report
// to outPath.
func runServeBench(quick bool, outPath string) error {
	report := ServeBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GitCommit:   gitCommit(),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Quick:       quick,
	}

	for _, bins := range serveLadderSizes(quick) {
		t := timeCWT(bins)
		report.CWT = append(report.CWT, t)
		fmt.Printf("bench %-10s %8.2fms/op (%d bins, %d widths)\n",
			"cwt", t.MsPerOp, t.Bins, t.Widths)
	}

	wt, err := timeWire("IS")
	if err != nil {
		return err
	}
	report.Wire = wt
	fmt.Printf("bench %-10s %8.1fMB/s decode, %.1fMB/s encode (%d-byte profile)\n",
		"wire", wt.DecodeMBPerSec, wt.EncodeMBPerSec, wt.ProfileBytes)

	lgOpt := loadgenOptions{Clients: 8, Requests: 192, Corpus: []string{"IS"}}
	if quick {
		lgOpt.Requests = 96
	}
	stats, err := runLoadgen(lgOpt, io.Discard)
	if err != nil {
		return fmt.Errorf("serve bench: loadgen: %w", err)
	}
	report.Loadgen = LoadgenTiming{
		Requests:  lgOpt.Requests,
		Clients:   lgOpt.Clients,
		ReqPerSec: float64(stats.OK) / stats.Elapsed.Seconds(),
		P50Ms:     stats.Latency.P50,
		P99Ms:     stats.Latency.P99,
	}
	fmt.Printf("bench %-10s %8.1freq/s P50=%.2fms P99=%.2fms\n",
		"serve", report.Loadgen.ReqPerSec, report.Loadgen.P50Ms, report.Loadgen.P99Ms)

	ft, err := timeFleet(report.Loadgen, lgOpt)
	if err != nil {
		return fmt.Errorf("serve bench: fleet: %w", err)
	}
	report.Fleet = ft
	fmt.Printf("bench %-10s %8.1freq/s (%.2fx single) P50=%.2fms P99=%.2fms; open loop %.1f offered -> %.1f achieved, %.2f%% dropped/rejected, %d analyses saved by aggregation\n",
		"fleet", ft.ReqPerSec, ft.SpeedupVsSingle, ft.P50Ms, ft.P99Ms,
		ft.OpenLoopOfferedPerSec, ft.OpenLoopAchievedPerSec,
		100*ft.OpenLoopDropRejectRate, ft.AggregateSavedAnalyses)

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s\n", outPath)
	return nil
}
