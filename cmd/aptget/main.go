// Command aptget runs one benchmark under a chosen prefetching variant
// and prints a perf-stat-style report, the prefetch plans, and the
// headline speedup. It is also the serving subsystem's offline client:
// -emit-profile writes the canonical wire profile a client would POST to
// aptgetd, and -emit-plans writes the plan set the in-process pipeline
// derives — the byte-for-byte reference the served plans are checked
// against.
//
// Usage:
//
//	aptget -app BFS                  # baseline vs A&J vs APT-GET
//	aptget -app HJ8 -variant aptget  # one variant only
//	aptget -list                     # application list
//	aptget -app IS -emit-profile is.profile -emit-plans is.plans
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aptget/internal/core"
	"aptget/internal/passes"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body. Exit status: 0 on success (including
// -list), 1 for runtime failures, 2 for usage errors (no -app, unknown
// application or variant, bad flags).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptget", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "application key (see -list)")
	variant := fs.String("variant", "compare", "baseline | static | aptget | compare")
	staticDist := fs.Int64("static-distance", 32, "prefetch distance for the static pass")
	dump := fs.Bool("dump", false, "print the IR after APT-GET's transformation")
	list := fs.Bool("list", false, "list applications")
	emitProfile := fs.String("emit-profile", "", "profile the app and write the canonical wire profile to this file")
	emitPlans := fs.String("emit-plans", "", "write the in-process pipeline's canonical wire plan set to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *app == "" {
		fmt.Fprintln(stdout, "applications:")
		for _, e := range workloads.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.Key, e.Description)
		}
		if *app == "" && !*list {
			fmt.Fprintln(stderr, "aptget: -app is required (use -list for application keys)")
			return 2
		}
		return 0
	}

	entry, ok := workloads.ByKey(*app)
	if !ok {
		fmt.Fprintf(stderr, "aptget: unknown application %q (use -list)\n", *app)
		return 2
	}
	cfg := core.DefaultConfig()
	cfg.Static.Distance = *staticDist

	fail := func(err error) int {
		fmt.Fprintf(stderr, "aptget: %v\n", err)
		return 1
	}

	if *emitProfile != "" || *emitPlans != "" {
		w := entry.New()
		prof, plans, err := core.ProfileAndPlan(w, cfg)
		if err != nil {
			return fail(err)
		}
		if *emitProfile != "" {
			// Build is deterministic: this program is the one that was
			// profiled, loop shapes included.
			prog, err := w.Build()
			if err != nil {
				return fail(err)
			}
			wp := wire.ProfileOf(entry.Key, prog, prof)
			data := wire.EncodeProfile(wp)
			if err := os.WriteFile(*emitProfile, data, 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "profile %s: %d bytes, fingerprint %s, shape %s\n",
				*emitProfile, len(data), wire.FingerprintBytes(data), wp.ShapeHash())
		}
		if *emitPlans != "" {
			data := wire.EncodePlanSet(wire.PlanSetFromAnalysis(entry.Key, plans, cfg.Analysis))
			if err := os.WriteFile(*emitPlans, data, 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "plans %s: %d bytes, %d plans\n",
				*emitPlans, len(data), len(plans))
		}
		return 0
	}

	if *dump {
		w := entry.New()
		_, plans, err := core.ProfileAndPlan(w, cfg)
		if err != nil {
			return fail(err)
		}
		p, err := w.Build()
		if err != nil {
			return fail(err)
		}
		rep, err := passes.AptGet(p, plans, cfg.Inject)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "; %s after APT-GET (%s)\n%s", entry.Key, rep, p.Func)
		return 0
	}

	switch *variant {
	case "baseline":
		r, err := core.RunBaseline(entry.New(), cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s (baseline)\n%s", entry.Key, r.Counters.String())
	case "static":
		r, err := core.RunStatic(entry.New(), cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s (ainsworth-jones, D=%d)\n%s", entry.Key, *staticDist, r.Counters.String())
		fmt.Fprintf(stdout, "pass: %s\n", r.Report)
	case "aptget":
		r, err := core.RunPipeline(entry.New(), cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s (apt-get)\n%s", entry.Key, r.Counters.String())
		fmt.Fprintf(stdout, "pass: %s\n", r.Report)
		for _, p := range r.Plans {
			fmt.Fprintf(stdout, "plan: %-18s pc=%d distance=%d site=%s trip=%.1f IC=%.0f MC=%.0f %s\n",
				p.LoadName, p.LoadPC, p.Distance, p.Site, p.AvgTrip, p.Inner.IC, p.Inner.MC, p.Fallback)
		}
	case "compare":
		cmp, err := core.Compare(entry.New(), cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", entry.Key)
		fmt.Fprintf(stdout, "  baseline: %12d cycles\n", cmp.Base.Counters.Cycles)
		fmt.Fprintf(stdout, "  A&J:      %12d cycles  %.2fx\n",
			cmp.Static.Counters.Cycles, cmp.StaticSpeedup())
		fmt.Fprintf(stdout, "  APT-GET:  %12d cycles  %.2fx\n",
			cmp.AptGet.Counters.Cycles, cmp.AptGetSpeedup())
		for _, p := range cmp.AptGet.Plans {
			fmt.Fprintf(stdout, "  plan: %-18s pc=%d distance=%d site=%s trip=%.1f %s\n",
				p.LoadName, p.LoadPC, p.Distance, p.Site, p.AvgTrip, p.Fallback)
		}
	default:
		fmt.Fprintf(stderr, "aptget: unknown variant %q\n", *variant)
		return 2
	}
	return 0
}
