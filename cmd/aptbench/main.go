// Command aptbench regenerates the paper's tables and figures.
//
// Usage:
//
//	aptbench -exp fig6          # one experiment (see -list)
//	aptbench -exp all           # everything (several minutes)
//	aptbench -exp fig8 -quick   # representative app subset
//	aptbench -exp fig6 -report report.json   # machine-readable stage/plan records
//	aptbench -exp fig6 -trace                # human-readable pipeline trace
//	aptbench -loadgen -clients 32            # load-test a plan service (in-process)
//	aptbench -loadgen -addr host:7717        # ... or a live aptgetd
//	aptbench -loadgen -rate 200 -requests 1000  # open-loop Poisson arrivals
//
// Experiments fan out over a GOMAXPROCS-sized worker pool; -workers pins
// the pool width (1 = serial). Output is identical at any width.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"aptget/internal/experiments"
	"aptget/internal/obs"
	"aptget/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// startProfiling starts a CPU profile and/or arranges a heap profile,
// as requested; the returned stop function finalizes both. It works in
// both modes (-exp, -loadgen), so any hot path either runs can be
// inspected with `go tool pprof` (see EXPERIMENTS.md for a worked
// session).
func startProfiling(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // flush recently-freed objects out of the heap profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("write heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}

// run is the testable CLI body. Exit status: 0 on success (including
// -list), 1 for runtime failures, 2 for usage errors (no -exp, unknown
// experiment, bad flags).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (or 'all')")
	quick := fs.Bool("quick", false, "restrict sweeps to a representative app subset")
	list := fs.Bool("list", false, "list experiment ids")
	workers := fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (-exp or -loadgen)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit (-exp or -loadgen)")
	report := fs.String("report", "", "write per-stage/per-plan observability records to this JSON file")
	trace := fs.Bool("trace", false, "print a human-readable pipeline trace after the experiments")
	loadgen := fs.Bool("loadgen", false, "replay a profile corpus against a plan service and report throughput/latency")
	addr := fs.String("addr", "", "plan service address for -loadgen (empty = in-process server)")
	clients := fs.Int("clients", 32, "concurrent -loadgen clients")
	requests := fs.Int("requests", 256, "total -loadgen requests")
	corpus := fs.String("corpus", "IS,BFS,HJ8", "comma-separated workload keys -loadgen replays")
	rate := fs.Float64("rate", 0, "open-loop -loadgen: Poisson arrival rate in req/s (0 = closed loop)")
	seed := fs.Int64("seed", 0, "open-loop arrival RNG seed (0 = 1)")
	relocate := fs.Uint64("relocate", 0, "-loadgen: shift every profile PC by this constant after warming the cache with the originals (stale-shape matching must serve the relocated corpus with zero re-analyses)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	runner.SetMaxWorkers(*workers)

	stopProf, err := startProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "aptbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "aptbench: %v\n", err)
		}
	}()

	if *loadgen {
		err := runLoadgen(loadgenOptions{
			Addr:     *addr,
			Clients:  *clients,
			Requests: *requests,
			Corpus:   strings.Split(*corpus, ","),
			Quick:    *quick,
			Rate:     *rate,
			Seed:     *seed,
			Relocate: *relocate,
		}, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "aptbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range experiments.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "aptbench: -exp is required (use -list for experiment ids)")
		fs.Usage()
		return 2
	}

	if *report != "" || *trace {
		obs.Enable()
		obs.Reset()
	}

	all := experiments.All()
	opt := experiments.Options{Quick: *quick}
	var ids []string
	if *exp == "all" {
		for n := range all {
			ids = append(ids, n)
		}
		sort.Strings(ids)
	} else {
		if _, ok := all[*exp]; !ok {
			fmt.Fprintf(stderr, "aptbench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		ids = []string{*exp}
	}

	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(stderr, "aptbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "== %s (%.1fs) ==\n%s\n", id, time.Since(start).Seconds(), res)
	}

	if *report != "" {
		data, err := obs.Snapshot().JSON()
		if err != nil {
			fmt.Fprintf(stderr, "aptbench: marshal report: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "aptbench: write report: %v\n", err)
			return 1
		}
	}
	if *trace {
		fmt.Fprint(stderr, obs.Snapshot().Text())
	}
	return 0
}
