// Package core is the paper's primary contribution assembled into a
// pipeline: profile an application once with LBR+PEBS sampling (§3.1,
// §3.4), derive per-delinquent-load prefetch distances and injection
// sites from the analytical model (§3.2–§3.3), inject prefetch slices
// with the compiler pass (§3.5), and run the optimized build. The static
// Ainsworth & Jones pass and the no-prefetching baseline are provided as
// the paper's comparison points (§4.1).
package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"

	"aptget/internal/analysis"
	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/mem"
	"aptget/internal/obs"
	"aptget/internal/passes"
	"aptget/internal/pmu"
	"aptget/internal/profile"
	"aptget/internal/runner"
)

// Workload is an application under optimization. Build must be
// deterministic: repeated calls produce structurally identical programs
// (same instruction order, hence same PCs), so plans computed on one
// build apply to another. InitMem seeds the data; Verify checks the
// computation's result against a native Go reference implementation.
type Workload interface {
	Name() string
	Build() (*ir.Program, error)
	InitMem(*mem.Arena)
	Verify(*mem.Arena) error
}

// Config bundles the knobs of the whole pipeline.
type Config struct {
	Machine  mem.Config
	Profile  profile.Options
	Analysis analysis.Options
	Inject   passes.AptGetOptions
	Static   passes.StaticOptions

	// Runs, when non-nil, shares simulations between calls: a run whose
	// program, initial memory, machine and cpu options match an earlier
	// run through the same cache gets that run's counters and samples
	// instead of simulating again. Nil simulates every run.
	Runs *RunCache

	// MaxInstructions bounds each execution (0 = the cpu default guard).
	MaxInstructions uint64
}

// DefaultConfig returns the configuration used throughout the evaluation:
// the scaled Table 2 machine with default profiling and analysis options.
func DefaultConfig() Config {
	return Config{Machine: mem.ConfigScaled()}
}

// Fill applies the pipeline's defaults to zero fields: the scaled
// machine, and an analysis DRAM latency taken from the machine. Every
// pipeline entry point fills its Config, and so does the plan service,
// which is what makes served plans byte-identical to the pipeline's.
func (c *Config) Fill() {
	if c.Machine.Name == "" {
		c.Machine = mem.ConfigScaled()
	}
	if c.Analysis.DRAMLatency == 0 {
		c.Analysis.DRAMLatency = float64(c.Machine.DRAMLatency)
	}
}

// Result is the outcome of running one build of a workload.
type Result struct {
	Variant  string // "baseline", "ainsworth-jones", "apt-get", ...
	Counters pmu.Counters
	Report   *passes.Report  // injection report; nil for the baseline
	Plans    []analysis.Plan // apt-get only

	// Provenance carries one record per plan explaining *why* each
	// distance and injection site was chosen — the Equation (1)/(2)
	// inputs (peaks, IC, MC, trip count, K) and any fallback reason.
	// Filled for apt-get results regardless of whether the obs registry
	// is enabled, so experiments can assert on decisions directly.
	Provenance []obs.PlanRecord
}

// Speedup returns base.Cycles / r.Cycles.
func (r *Result) Speedup(base *Result) float64 {
	return r.Counters.Speedup(&base.Counters)
}

// RunBaseline executes the unmodified program.
func RunBaseline(w Workload, cfg Config) (*Result, error) {
	cfg.Fill()
	p, err := build(w)
	if err != nil {
		return nil, err
	}
	return execute(w, p, cfg, "baseline", nil, nil)
}

// RunStatic applies the Ainsworth & Jones static pass and executes the
// result.
func RunStatic(w Workload, cfg Config) (*Result, error) {
	cfg.Fill()
	p, err := build(w)
	if err != nil {
		return nil, err
	}
	return runStatic(w, p, cfg)
}

// ProfileAndPlan runs the profiling build and the analytical model,
// returning the prefetch plans (and the raw profile for inspection).
func ProfileAndPlan(w Workload, cfg Config) (*profile.Profile, []analysis.Plan, error) {
	cfg.Fill()
	p, err := build(w)
	if err != nil {
		return nil, nil, err
	}
	_, prof, plans, err := profileAndPlan(w, p, cfg)
	return prof, plans, err
}

// BaselineAndPlans runs the unmodified program once with the profiling
// hardware armed and derives the prefetch plans from that run. Sampling
// costs the simulated program no cycles, so the profiling run is a
// baseline execution too: its verified counters are returned as the
// baseline result, and the baseline is not simulated a second time.
func BaselineAndPlans(w Workload, cfg Config) (*Result, []analysis.Plan, error) {
	cfg.Fill()
	p, err := build(w)
	if err != nil {
		return nil, nil, err
	}
	base, _, plans, err := profileAndPlan(w, p, cfg)
	return base, plans, err
}

// profileAndPlan runs an already built program with the profiling
// hardware armed and returns the run as a baseline result, its profile
// and the plans derived from it.
func profileAndPlan(w Workload, p *ir.Program, cfg Config) (*Result, *profile.Profile, []analysis.Plan, error) {
	opts := profile.RunOptions(cfg.Profile)
	opts.InitMem, opts.MaxInstructions = w.InitMem, cfg.MaxInstructions
	res, err := simulate(w, p, cfg, "baseline", opts)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := obs.Begin(w.Name()+"/apt-get", obs.StageProfile)
	popt := cfg.Profile
	popt.Obs = sp
	prof := profile.FromRun(res, popt)
	sp.End()
	plans, err := analyze(w, p, prof, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Result{Variant: "baseline", Counters: res.Counters}, prof, plans, nil
}

// analyze runs the analytical model on a profile of p.
func analyze(w Workload, p *ir.Program, prof *profile.Profile, cfg Config) ([]analysis.Plan, error) {
	sp := obs.Begin(w.Name()+"/apt-get", obs.StageAnalysis)
	aopt := cfg.Analysis
	aopt.Obs = sp
	plans, err := analysis.Analyze(p, prof, aopt)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: analyzing %s: %w", w.Name(), err)
	}
	return plans, nil
}

// RunPipeline is the paper's end-to-end flow: profile once, derive
// plans from the analytical model, inject the prefetch slices, and run
// the optimized build. Each stage opens an obs span scoped to the
// workload, and the returned Result carries per-plan provenance so a
// caller can audit why each distance and site was chosen.
func RunPipeline(w Workload, cfg Config) (*Result, error) {
	cfg.Fill()
	_, plans, err := ProfileAndPlan(w, cfg)
	if err != nil {
		return nil, err
	}
	return RunWithPlans(w, plans, cfg)
}

// RunWithPlans injects the given plans into a fresh build of w and
// executes it. Used directly for the paper's train/test input study
// (Figure 12): plans computed on the training input are applied to a
// workload with a different dataset.
func RunWithPlans(w Workload, plans []analysis.Plan, cfg Config) (*Result, error) {
	cfg.Fill()
	p, err := build(w)
	if err != nil {
		return nil, err
	}
	return runAptGet(w, p, plans, cfg)
}

// build returns a fresh build of w.
func build(w Workload) (*ir.Program, error) {
	p, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", w.Name(), err)
	}
	return p, nil
}

// runStatic applies the Ainsworth & Jones pass to p and executes it.
func runStatic(w Workload, p *ir.Program, cfg Config) (*Result, error) {
	sp := obs.Begin(w.Name()+"/ainsworth-jones", obs.StageInject)
	sopt := cfg.Static
	sopt.Obs = sp
	rep, err := passes.AinsworthJones(p, sopt)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: static pass on %s: %w", w.Name(), err)
	}
	return execute(w, p, cfg, "ainsworth-jones", rep, nil)
}

// runAptGet injects plans into p and executes it.
func runAptGet(w Workload, p *ir.Program, plans []analysis.Plan, cfg Config) (*Result, error) {
	sp := obs.Begin(w.Name()+"/apt-get", obs.StageInject)
	iopt := cfg.Inject
	iopt.Obs = sp
	rep, err := passes.AptGet(p, plans, iopt)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: apt-get pass on %s: %w", w.Name(), err)
	}
	res, err := execute(w, p, cfg, "apt-get", rep, plans)
	if err != nil {
		return nil, err
	}
	res.Provenance = make([]obs.PlanRecord, len(plans))
	for i := range plans {
		res.Provenance[i] = plans[i].Record(cfg.Analysis)
	}
	return res, nil
}

func execute(w Workload, p *ir.Program, cfg Config, variant string,
	rep *passes.Report, plans []analysis.Plan) (*Result, error) {

	res, err := simulate(w, p, cfg, variant, cpu.Options{InitMem: w.InitMem, MaxInstructions: cfg.MaxInstructions})
	if err != nil {
		return nil, err
	}
	return &Result{
		Variant:  variant,
		Counters: res.Counters,
		Report:   rep,
		Plans:    plans,
	}, nil
}

// RunCache shares simulations between pipeline calls that set it as
// Config.Runs. The simulator is deterministic, so a run is a function of
// what it reads, and the cache simulates each such key once: later calls
// get the first run's verified counters and samples, never its memory
// hierarchy. The zero value is ready to use by concurrent callers.
type RunCache struct {
	runs sync.Map // runKey -> *memo
}

// memo is one cached run; once guards its single simulation, so
// concurrent callers asking for the same run wait for one.
type memo struct {
	once sync.Once
	res  *cpu.Result
	err  error
}

// runKey identifies a run of p by everything it reads: the program as
// printed after PC assignment, its entry block and arena size, the
// arena's bytes after InitMem (program text alone cannot tell two
// same-sized inputs apart), the machine and the cpu options.
func runKey(p *ir.Program, machine mem.Config, opts cpu.Options) [sha256.Size]byte {
	p.Func.AssignPCs()
	a := mem.NewArena(p.MemSize)
	opts.InitMem(a)
	h := sha256.New()
	fmt.Fprintf(h, "%s\nentry=%d mem=%d arena=%x\n%+v\nsample=%d pebs=%d lbr=%d max=%d\n",
		p.Func, p.Func.Entry, p.MemSize, a.Sum256(), machine,
		opts.SamplePeriod, opts.PEBSPeriod, opts.LBRWidth, opts.MaxInstructions)
	a.Recycle()
	return [sha256.Size]byte(h.Sum(nil))
}

// simulate returns the run of p with opts, from cfg.Runs when it holds
// the run and by simulating it otherwise.
func simulate(w Workload, p *ir.Program, cfg Config, variant string, opts cpu.Options) (*cpu.Result, error) {
	if cfg.Runs == nil {
		return run(w, p, cfg.Machine, variant, opts)
	}
	v, _ := cfg.Runs.runs.LoadOrStore(runKey(p, cfg.Machine, opts), new(memo))
	m := v.(*memo)
	m.once.Do(func() { m.res, m.err = run(w, p, cfg.Machine, variant, opts) })
	return m.res, m.err
}

// run simulates p with opts under an execute span carrying the run's
// counters, verifies the result and recycles the arena. The returned
// run keeps its counters and samples but no memory hierarchy.
func run(w Workload, p *ir.Program, machine mem.Config, variant string, opts cpu.Options) (*cpu.Result, error) {
	sp := obs.Begin(w.Name()+"/"+variant, obs.StageExecute)
	res, err := cpu.Run(p, machine, opts)
	if err != nil {
		sp.End()
		// An execution error still returns the hierarchy; recycle its
		// arena so failed runs don't bleed the pool dry.
		if res != nil {
			res.Hier.Release()
		}
		return nil, fmt.Errorf("core: running %s (%s): %w", w.Name(), variant, err)
	}
	if sp != nil {
		sp.SetAll(res.Counters.Export())
		for k, v := range res.Counters.ExportMetrics() {
			sp.SetMetric(k, v)
		}
	}
	sp.End()
	// Verification is the last reader of the simulated memory: recycle
	// the arena for the next run of this workload size.
	err = w.Verify(res.Hier.Arena)
	res.Hier.Release()
	res.Hier = nil
	if err != nil {
		return nil, fmt.Errorf("core: %s (%s) computed a wrong result: %w",
			w.Name(), variant, err)
	}
	return res, nil
}

// Comparison is the three-way result the paper's headline figures use.
type Comparison struct {
	Workload string
	Base     *Result
	Static   *Result
	AptGet   *Result
}

// StaticSpeedup returns the Ainsworth & Jones speedup over baseline.
func (c *Comparison) StaticSpeedup() float64 { return c.Static.Speedup(c.Base) }

// AptGetSpeedup returns the APT-GET speedup over baseline.
func (c *Comparison) AptGetSpeedup() float64 { return c.AptGet.Speedup(c.Base) }

// Compare runs baseline, Ainsworth & Jones, and APT-GET on the workload.
//
// One comparison simulates three builds: the profiling run is also the
// baseline run (BaselineAndPlans). The Ainsworth & Jones chain and the
// baseline → analysis → APT-GET chain are independent, so they run as
// two runner jobs; runner.SetMaxWorkers(1) runs them one after the other
// with the same result. Build writes workload state (array handles), so
// all three programs are built here first; the jobs then only read w,
// through InitMem and Verify.
func Compare(w Workload, cfg Config) (*Comparison, error) {
	cfg.Fill()
	var progs [3]*ir.Program
	for i := range progs {
		p, err := build(w)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	c := &Comparison{Workload: w.Name()}
	err := runner.Run(2, func(i int) error {
		if i == 0 {
			var err error
			c.Static, err = runStatic(w, progs[0], cfg)
			return err
		}
		base, _, plans, err := profileAndPlan(w, progs[1], cfg)
		if err != nil {
			return err
		}
		c.Base = base
		c.AptGet, err = runAptGet(w, progs[2], plans, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// GeoMean computes the geometric mean of a slice of ratios — the paper's
// average-speedup aggregation (§4.3). It averages in log space: a
// running product overflows to +Inf (or underflows to 0) for long
// slices of large (small) ratios long before the mean itself leaves
// float range.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
