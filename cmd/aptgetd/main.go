// Command aptgetd is the continuous-profiling plan service: a daemon
// that ingests wire-encoded profiles, derives prefetch plans with the
// paper's analytical model, and serves them from a content-addressed
// cache with single-flight deduplication and stale-profile matching.
//
// Usage:
//
//	aptgetd                          # listen on 127.0.0.1:7717
//	aptgetd -addr :8080 -inflight 128
//	aptgetd -report report.json      # write obs span report on shutdown
//
// As a fleet shard behind aptrouter it needs no knowledge of its
// siblings: the router owns placement and fails over along the ring
// when a shard dies, so a shard runs with the same flags as a lone
// daemon:
//
//	aptgetd -addr :7701
//
// GET /debug/pprof/profile?seconds=N returns a CPU profile of the live
// daemon; the file feeds a profile-guided rebuild directly:
//
//	curl -o default.pgo 'http://127.0.0.1:7717/debug/pprof/profile?seconds=30'
//	go build -pgo=default.pgo ./cmd/aptgetd
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"aptget/internal/obs"
	"aptget/internal/planstore"
	"aptget/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable daemon body: listen, serve until ctx is cancelled,
// optionally write the obs report. Exit status: 0 on clean shutdown,
// 1 for runtime failures, 2 for usage errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptgetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7717", "listen address (host:port, :0 picks a free port)")
	cache := fs.Int("cache", planstore.DefaultCapacity, "plan cache capacity in entries")
	inflight := fs.Int("inflight", service.DefaultMaxInflight, "max concurrently served requests before 429")
	timeout := fs.Duration("timeout", service.DefaultRequestTimeout, "per-request deadline")
	report := fs.String("report", "", "write per-stage observability records to this JSON file on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The obs registry accumulates one span per analysis for the process
	// lifetime, so a long-running daemon only enables it when a report
	// was asked for. The plan-cache counters on /v1/metrics are atomics
	// and work either way.
	if *report != "" {
		obs.Enable()
		obs.Reset()
	}

	srv := service.New(service.Config{
		CacheCapacity:  *cache,
		MaxInflight:    *inflight,
		RequestTimeout: *timeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "aptgetd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "aptgetd: listening on %s (cache %d entries, %d in-flight, %s timeout)\n",
		ln.Addr(), *cache, *inflight, *timeout)

	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "aptgetd: %v\n", err)
		return 1
	}

	if *report != "" {
		data, err := obs.Snapshot().JSON()
		if err != nil {
			fmt.Fprintf(stderr, "aptgetd: marshal report: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "aptgetd: write report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "aptgetd: report written to %s\n", *report)
	}
	fmt.Fprintln(stdout, "aptgetd: shut down cleanly")
	return 0
}
