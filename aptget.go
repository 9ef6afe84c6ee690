// Package aptget is the public API of this APT-GET reproduction
// (EuroSys 2022: profile-guided timely software prefetching).
//
// The pipeline mirrors the paper end to end on a simulated substrate:
//
//	w := aptget.Workloads()[0].New()          // a Table 3 application
//	cmp, err := aptget.Compare(w, aptget.DefaultConfig())
//	fmt.Printf("APT-GET %.2fx vs static %.2fx\n",
//	        cmp.AptGetSpeedup(), cmp.StaticSpeedup())
//
// Compare runs the no-prefetching baseline, the Ainsworth & Jones static
// pass, and the full APT-GET pipeline (LBR+PEBS profiling → CWT latency
// peak analysis → Equation 1 prefetch distance → Equation 2 injection
// site → prefetch-slice injection) and verifies every run against a
// native Go reference implementation.
//
// Lower-level entry points (ProfileAndPlan, RunWithPlans) expose the
// intermediate artifacts: profiles, per-load prefetch plans, and pass
// reports. The experiments registry (Experiments) regenerates every
// table and figure of the paper's evaluation.
package aptget

import (
	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/experiments"
	"aptget/internal/mem"
	"aptget/internal/profile"
	"aptget/internal/workloads"
)

// Re-exported pipeline types.
type (
	// Workload is an application under optimization; implementations
	// must build deterministically and verify their results.
	Workload = core.Workload
	// Config bundles machine, profiling, analysis, and pass options.
	Config = core.Config
	// Result is one executed variant with its PMU counters.
	Result = core.Result
	// Comparison is the baseline / static / APT-GET three-way result.
	Comparison = core.Comparison
	// Plan is a per-delinquent-load prefetch decision (distance + site).
	Plan = analysis.Plan
	// Profile is the raw LBR+PEBS profiling output.
	Profile = profile.Profile
	// MachineConfig describes the simulated memory system.
	MachineConfig = mem.Config
	// WorkloadEntry is one Table 3 application constructor.
	WorkloadEntry = workloads.Entry
	// ExperimentOptions selects the app subset of experiment runs
	// (Quick); every experiment runs the DefaultConfig pipeline.
	ExperimentOptions = experiments.Options
)

// DefaultConfig returns the evaluation configuration (scaled Table 2
// machine).
func DefaultConfig() Config { return core.DefaultConfig() }

// MachineScaled returns the scaled Table 2 machine model.
func MachineScaled() MachineConfig { return mem.ConfigScaled() }

// MachineXeon5218 returns the paper's Table 2 machine model at full size.
func MachineXeon5218() MachineConfig { return mem.ConfigXeon5218() }

// RunBaseline executes a workload without software prefetching.
func RunBaseline(w Workload, cfg Config) (*Result, error) { return core.RunBaseline(w, cfg) }

// RunStatic executes a workload under the Ainsworth & Jones static pass.
func RunStatic(w Workload, cfg Config) (*Result, error) { return core.RunStatic(w, cfg) }

// RunPipeline executes the full APT-GET pipeline on a workload: profile
// → analyze → inject → execute, with per-plan provenance on the Result.
func RunPipeline(w Workload, cfg Config) (*Result, error) { return core.RunPipeline(w, cfg) }

// ProfileAndPlan profiles a workload and returns its prefetch plans.
func ProfileAndPlan(w Workload, cfg Config) (*Profile, []Plan, error) {
	return core.ProfileAndPlan(w, cfg)
}

// RunWithPlans injects the given plans into a fresh build and runs it
// (the Figure 12 train/test mechanism).
func RunWithPlans(w Workload, plans []Plan, cfg Config) (*Result, error) {
	return core.RunWithPlans(w, plans, cfg)
}

// Compare runs baseline, static, and APT-GET variants of a workload.
func Compare(w Workload, cfg Config) (*Comparison, error) { return core.Compare(w, cfg) }

// GeoMean is the paper's average-speedup aggregation.
func GeoMean(xs []float64) float64 { return core.GeoMean(xs) }

// Workloads returns the Table 3 application registry.
func Workloads() []WorkloadEntry { return workloads.Registry() }

// WorkloadByKey looks up a Table 3 application.
func WorkloadByKey(key string) (WorkloadEntry, bool) { return workloads.ByKey(key) }

// Experiments returns the table/figure regeneration registry
// (DESIGN.md §4). Its runners share one process-wide run cache: each
// distinct simulation runs once, and its counters and samples stay in
// memory until the process exits.
func Experiments() map[string]experiments.Runner { return experiments.All() }
