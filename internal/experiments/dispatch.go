package experiments

import (
	"fmt"
	"sort"
	"sync"

	"aptget/internal/graphgen"
	"aptget/internal/obs"
	"aptget/internal/workloads"
)

// Runner executes one experiment and returns its printable result.
type Runner func(Options) (fmt.Stringer, error)

func wrap[T fmt.Stringer](f func(Options) (T, error)) Runner {
	return func(o Options) (fmt.Stringer, error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

var (
	allOnce    sync.Once
	allRunners map[string]Runner
)

// All maps experiment IDs (DESIGN.md §4) to runners. The map is built
// once and shared: callers must not mutate it.
func All() map[string]Runner {
	allOnce.Do(func() { allRunners = buildAll() })
	return allRunners
}

func buildAll() map[string]Runner {
	return map[string]Runner{
		"table1":    wrap(Table1),
		"fig1":      wrap(Fig1),
		"fig2":      wrap(Fig2),
		"fig4":      wrap(Fig4),
		"fig5":      wrap(Fig5),
		"fig6":      wrap(Fig6),
		"fig7":      wrap(Fig7),
		"fig8":      wrap(Fig8),
		"fig9":      wrap(Fig9),
		"fig10":     wrap(Fig10),
		"fig11":     wrap(Fig11),
		"fig12":     wrap(Fig12),
		"datasets":  wrap(Datasets),
		"fig6x":     wrap(Fig6x),
		"ablation":  wrap(Ablation),
		"lbrwidth":  wrap(LBRWidth),
		"replan":    wrap(Replan),
		"selection": wrap(Selection),
	}
}

// Run executes one experiment by ID under an observability span, so
// aptbench -report/-trace records per-experiment wall times alongside
// the pipeline-stage spans the experiment's runs open.
func Run(id string, o Options) (fmt.Stringer, error) {
	r, ok := All()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	sp := obs.Begin("exp/"+id, obs.StageExperiment)
	defer sp.End()
	return r(o)
}

// Names returns the experiment IDs in stable order.
func Names() []string {
	m := All()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DatasetsResult reproduces Tables 3 and 4: the application list and the
// synthetic stand-ins for the paper's datasets.
type DatasetsResult struct {
	Apps     []workloads.Entry
	Datasets []graphgen.Dataset
}

// Datasets collects the registries (no simulation).
func Datasets(o Options) (*DatasetsResult, error) {
	return &DatasetsResult{
		Apps:     workloads.Registry(),
		Datasets: graphgen.Datasets(),
	}, nil
}

// String renders both tables.
func (d *DatasetsResult) String() string {
	var appRows [][]string
	for _, e := range d.Apps {
		appRows = append(appRows, []string{e.Key, e.Description, e.Dataset})
	}
	var dsRows [][]string
	for _, ds := range d.Datasets {
		g := ds.Make()
		dsRows = append(dsRows, []string{
			ds.Name, ds.Original, ds.Class,
			fmt.Sprintf("%d", g.N), fmt.Sprintf("%d", g.M()),
			fmt.Sprintf("%.1f", g.AvgDegree()),
		})
	}
	return "Table 3: applications\n" +
		table([]string{"app", "description", "dataset"}, appRows) +
		"\nTable 4: dataset stand-ins (scaled; see DESIGN.md)\n" +
		table([]string{"name", "models", "class", "vertices", "edges", "avg deg"}, dsRows)
}
