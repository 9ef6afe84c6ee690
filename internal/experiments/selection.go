package experiments

import (
	"fmt"
	"sort"
	"strings"

	"aptget/internal/core"
	"aptget/internal/pebs"
	"aptget/internal/profile"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// selectionPEBSPeriod is the sampling density used by the selection
// study. The default period (97) is fine for ranking hot loads but
// leaves the adversarial kernels' rare-expensive loads with a handful
// of samples; a denser prime keeps the frontier's score estimates
// stable without changing their expectation.
const selectionPEBSPeriod = 13

// SelectionCell is one (app, threshold) point of the frontier sweep.
type SelectionCell struct {
	App           string
	Threshold     float64 // MinLoadSCKPI; negative = gate off (rank only)
	Plans         int
	Speedup       float64
	InstrOverhead float64
}

// SelectionGate summarizes which LSM loads one gate kept.
type SelectionGate struct {
	Name    string
	Kept    []string
	Dropped []string
}

// SelectionResult is the 2-D selection study: a threshold frontier
// (plans kept / speedup / instruction overhead per app as the score
// gate sweeps from permissive to strict) plus the head-to-head gate
// comparison on the adversarial LSM scan kernel.
type SelectionResult struct {
	Apps       []string
	Thresholds []float64
	Cells      []SelectionCell // app-major, threshold order within app
	Gates      []SelectionGate // LSM: "2-D score" then "MPKI-only"
}

// LSMContrastHolds reports the corpus's acceptance property as computed
// by the study: the 2-D gate kept the expensive probe and dropped the
// cheap scan, while the MPKI-only gate did the reverse.
func (s *SelectionResult) LSMContrastHolds() bool {
	find := func(name string) *SelectionGate {
		for i := range s.Gates {
			if s.Gates[i].Name == name {
				return &s.Gates[i]
			}
		}
		return nil
	}
	has := func(l []string, n string) bool {
		for _, x := range l {
			if x == n {
				return true
			}
		}
		return false
	}
	twoD, oneD := find("2-D score"), find("MPKI-only")
	if twoD == nil || oneD == nil {
		return false
	}
	return has(twoD.Kept, "probe") && has(twoD.Dropped, "scan") &&
		has(oneD.Kept, "scan") && has(oneD.Dropped, "probe")
}

// Selection runs the delinquent-load selection study over the
// adversarial corpus plus representative Table 3 applications.
func Selection(o Options) (*SelectionResult, error) {
	keys := []string{"LSM", "BTree", "MTI", "BFS", "CG", "HJ8"}
	thresholds := []float64{-1, 10, 25, 50, 100, 200}
	if o.Quick {
		keys = []string{"LSM", "BTree"}
		thresholds = []float64{-1, 50, 200}
	}
	res := &SelectionResult{Apps: keys, Thresholds: thresholds}

	entries := make([]workloads.Entry, len(keys))
	for i, k := range keys {
		e, ok := workloads.ByKey(k)
		if !ok {
			return nil, fmt.Errorf("selection: unknown app %s", k)
		}
		entries[i] = e
	}
	cfg0 := evalConfig()
	cfg0.Profile.PEBSPeriod = selectionPEBSPeriod
	cells, err := runner.Map(len(entries)*len(thresholds), func(j int) (SelectionCell, error) {
		e, th := entries[j/len(thresholds)], thresholds[j%len(thresholds)]
		cfg := cfg0
		cfg.Profile.MinLoadSCKPI = th
		// The gate acts after the profiling run, so an app's cells share
		// that run; it is also their baseline.
		base, plans, err := core.BaselineAndPlans(e.New(), cfg)
		if err != nil {
			return SelectionCell{}, fmt.Errorf("selection %s@%.0f: %w", e.Key, th, err)
		}
		r, err := core.RunWithPlans(e.New(), plans, cfg)
		if err != nil {
			return SelectionCell{}, fmt.Errorf("selection %s@%.0f: %w", e.Key, th, err)
		}
		return SelectionCell{
			App:           e.Key,
			Threshold:     th,
			Plans:         len(r.Plans),
			Speedup:       r.Speedup(base),
			InstrOverhead: r.Counters.InstructionOverhead(&base.Counters),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells

	gates, err := lsmGateContrast(cfg0)
	if err != nil {
		return nil, err
	}
	res.Gates = gates
	return res, nil
}

// lsmGateContrast profiles the LSM kernel once (gate disabled) and runs
// both gates over the same candidates, reporting kept/dropped loads by
// source name.
func lsmGateContrast(cfg core.Config) ([]SelectionGate, error) {
	e, ok := workloads.ByKey("LSM")
	if !ok {
		return nil, fmt.Errorf("selection: LSM kernel missing")
	}
	w := e.New()
	cfg.Profile.MinLoadSCKPI = -1 // collect every candidate; gates applied below
	prof, _, err := core.ProfileAndPlan(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("selection: profiling LSM: %w", err)
	}
	p, err := w.Build()
	if err != nil {
		return nil, err
	}
	name := func(pc uint64) string {
		for vi := range p.Func.Instrs {
			if p.Func.Instrs[vi].PC == pc {
				return p.Func.Instrs[vi].Name
			}
		}
		return fmt.Sprintf("pc%d", pc)
	}
	variants := []struct {
		label string
		opt   profile.Options
	}{
		{"2-D score", profile.Options{PEBSPeriod: selectionPEBSPeriod}},
		{"MPKI-only", profile.Options{PEBSPeriod: selectionPEBSPeriod, MPKIOnly: true}},
	}
	var gates []SelectionGate
	for _, v := range variants {
		cand := append([]pebs.Load(nil), prof.Loads...)
		kept := profile.SelectLoads(cand, prof.Counters.Instructions, v.opt)
		in := map[uint64]bool{}
		g := SelectionGate{Name: v.label}
		for _, l := range kept {
			in[l.PC] = true
			g.Kept = append(g.Kept, name(l.PC))
		}
		for _, l := range prof.Loads {
			if !in[l.PC] {
				g.Dropped = append(g.Dropped, name(l.PC))
			}
		}
		sort.Strings(g.Kept)
		sort.Strings(g.Dropped)
		gates = append(gates, g)
	}
	return gates, nil
}

// String renders the frontier (one row per app×threshold) and the gate
// contrast.
func (s *SelectionResult) String() string {
	var rows [][]string
	for _, c := range s.Cells {
		th := fmt.Sprintf("%.0f", c.Threshold)
		if c.Threshold < 0 {
			th = "off"
		}
		rows = append(rows, []string{
			c.App, th,
			fmt.Sprintf("%d", c.Plans),
			fmt.Sprintf("%.2fx", c.Speedup),
			fmt.Sprintf("%.3fx", c.InstrOverhead),
		})
	}
	var sb strings.Builder
	sb.WriteString("2-D selection frontier: score gate (stall cycles per kilo-instruction) sweep\n")
	sb.WriteString(table([]string{"app", "gate", "plans", "speedup", "instr overhead"}, rows))
	sb.WriteString("\nLSM gate contrast (cheap-frequent scan vs expensive-rare probe):\n")
	for _, g := range s.Gates {
		fmt.Fprintf(&sb, "  %-10s kept=%v dropped=%v\n", g.Name, g.Kept, g.Dropped)
	}
	fmt.Fprintf(&sb, "  contrast holds (2-D keeps probe/drops scan; MPKI-only reversed): %v\n",
		s.LSMContrastHolds())
	return sb.String()
}
