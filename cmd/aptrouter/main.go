// Command aptrouter is the fleet front door: it proxies plan-service
// requests to the aptgetd shard owning each profile fingerprint on a
// consistent-hash ring, failing over to the next ring member when a
// shard dies.
//
// Usage:
//
//	aptrouter -shards 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703
//	aptrouter -addr :7700 -shards ... -retries 2 -timeout 30s
//
// The router is stateless: routing depends only on the shard list (in
// any order) and the request content, so any number of routers in front
// of one fleet agree on every key.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"aptget/internal/ring"
	"aptget/internal/router"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable router body. Exit status: 0 on clean shutdown,
// 1 for runtime failures, 2 for usage errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7700", "listen address (host:port, :0 picks a free port)")
	shards := fs.String("shards", "", "comma-separated aptgetd shard addresses (required)")
	vnodes := fs.Int("vnodes", ring.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
	retries := fs.Int("retries", 0, "max distinct shards tried per request, owner included (0 = all)")
	timeout := fs.Duration("timeout", router.DefaultTimeout, "per-upstream-attempt deadline; also the deadline for reading a request")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, s)
		}
	}
	if len(shardList) == 0 {
		fmt.Fprintln(stderr, "aptrouter: -shards is required")
		return 2
	}

	rt, err := router.New(router.Config{
		Shards:  shardList,
		VNodes:  *vnodes,
		Retries: *retries,
		Timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "aptrouter: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "aptrouter: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "aptrouter: listening on %s, routing to %d shards (%d vnodes each)\n",
		ln.Addr(), len(rt.Ring().Members()), *vnodes)

	if err := rt.Serve(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "aptrouter: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "aptrouter: shut down cleanly")
	return 0
}
