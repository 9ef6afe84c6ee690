package main

// In-process fleet harness for the serve benchmark: N aptgetd shards
// behind one aptrouter, all on loopback ports. Shards know nothing of
// each other; the router owns placement and failover. The serve bench
// drives loadgen through the router to measure fleet-wide throughput
// against the single-server baseline.

import (
	"context"
	"fmt"
	"net"

	"aptget/internal/router"
	"aptget/internal/service"
)

// fleetHarness is a running in-process shard fleet.
type fleetHarness struct {
	RouterAddr string
	shards     []*service.Server
	rt         *router.Router
	cancel     context.CancelFunc
	done       chan error
}

// startFleet boots n shards and a router over them.
func startFleet(n int) (*fleetHarness, error) {
	ctx, cancel := context.WithCancel(context.Background())
	h := &fleetHarness{cancel: cancel, done: make(chan error, n+1)}

	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	for i := 0; i < n; i++ {
		srv := service.New(service.Config{MaxInflight: 256})
		h.shards = append(h.shards, srv)
		go func(srv *service.Server, ln net.Listener) {
			h.done <- srv.Serve(ctx, ln)
		}(srv, lns[i])
	}

	rt, err := router.New(router.Config{Shards: addrs})
	if err != nil {
		cancel()
		return nil, err
	}
	h.rt = rt
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	h.RouterAddr = rln.Addr().String()
	go func() { h.done <- rt.Serve(ctx, rln) }()
	return h, nil
}

// Counters sums the shards' counters fleet-wide (in-process — no HTTP
// fan-out needed for the bench).
func (h *fleetHarness) Counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, s := range h.shards {
		for k, v := range s.Counters() {
			sum[k] += v
		}
	}
	for k, v := range h.rt.Counters() {
		sum[k] += v
	}
	return sum
}

// Stop shuts the fleet down and waits for every listener to drain.
func (h *fleetHarness) Stop() error {
	h.cancel()
	var firstErr error
	for i := 0; i < len(h.shards)+1; i++ {
		if err := <-h.done; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet shutdown: %w", err)
		}
	}
	return firstErr
}
