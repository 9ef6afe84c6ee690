package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/service"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"reproduce", "serve-hit", "serve-cold", "fleet-hit"} {
		a, err := genInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w, 7)
		c, _ := genInputs(w, 8)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}

func TestSameSeedSameProfileBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a workload")
	}
	in, _ := genInputs("serve-hit", 3)
	win := in.Windows[0] // DFS, the cheapest app to profile
	cfg := core.DefaultConfig()
	service.FillPipeline(&cfg)
	a, err := collectWindow(nil, -1, cfg, win, &simClock{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := collectWindow(nil, -1, cfg, win, &simClock{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("window %v collected different profile bytes twice", win)
	}
}

func TestInputsCoverEveryAppEachPass(t *testing.T) {
	for _, w := range []string{"reproduce", "serve-hit", "serve-cold", "fleet-hit"} {
		in, _ := genInputs(w, 11)
		for p, pass := range in.Order {
			apps := map[string]int{}
			for _, i := range pass {
				if in.Apps != nil {
					apps[in.Apps[i]]++
				} else {
					apps[in.Windows[i].App]++
				}
			}
			want := 1
			if in.Windows != nil && w != "serve-cold" {
				want = windowsPerApp
			}
			for _, app := range serveApps {
				if apps[app] != want {
					t.Fatalf("%s pass %d: app %s appears %d times, want %d", w, p, app, apps[app], want)
				}
			}
		}
	}
}

func TestColdRoundsUseEveryWindow(t *testing.T) {
	in, _ := genInputs("serve-cold", 5)
	used := map[int]bool{}
	for _, round := range in.Order {
		for _, i := range round {
			used[i] = true
		}
	}
	if len(used) != len(in.Windows) {
		t.Fatalf("rounds use %d of %d windows", len(used), len(in.Windows))
	}
}

func TestColdRoundsCycleEveryOrder(t *testing.T) {
	in, _ := genInputs("serve-cold", 9)
	n := len(permutations(len(serveApps)))
	seen := map[string]bool{}
	for _, round := range in.Order[:n] {
		var apps []string
		for _, i := range round {
			apps = append(apps, in.Windows[i].App)
		}
		seen[strings.Join(apps, ",")] = true
	}
	if len(seen) != n {
		t.Fatalf("the first %d rounds hold %d distinct app orders", n, len(seen))
	}
}

func TestQuantileAndTail(t *testing.T) {
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of [1 2] = %v, want 1.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of [5 1 3] = %v, want 3", got)
	}
	// 3 samples: no percentile has 10 beyond it, so the tail is the max.
	if v, label := tail([]float64{1, 9, 4}); v != 9 || label != "max" {
		t.Errorf("tail of 3 samples = %v %s, want 9 max", v, label)
	}
	// 1..100: p90 has exactly 10 samples beyond it; p99 has 1.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); label != "p90" || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail of 1..100 = %v %s, want 90.1 p90", v, label)
	}
	// 1..1000: p99 (10 beyond) beats p90; p99.9 has 1.
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); label != "p99" || math.Abs(v-990.01) > 1e-9 {
		t.Errorf("tail of 1..1000 = %v %s, want 990.01 p99", v, label)
	}
}

func TestGroupedTail(t *testing.T) {
	// Three groups of 3: each group's tail is its max (9, 5, 7); the
	// reported tail is their median, so the burst in group 0 does not set it.
	xs := []float64{1, 2, 9, 1, 2, 5, 1, 2, 7}
	groups := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	if v, _ := groupedTail(xs, groups); v != 7 {
		t.Errorf("grouped tail %v, want 7", v)
	}
	if v, _ := groupedTail(xs, nil); v != 9 {
		t.Errorf("ungrouped tail %v, want 9", v)
	}
}

func TestScaledEndToEnd(t *testing.T) {
	// The reference ran at half the nominal speed: times halve, rates
	// double, and the rest is reported as measured.
	rep := &report{
		setupS: []float64{3}, latMs: []float64{4, 8, 6}, windowS: 2,
		simInstr: 10e6, simS: 1, rssMB: 100, speedups: []float64{1.5},
		ref: &reference{ms: []float64{2 * refNominalMs, 2 * refNominalMs}},
	}
	rep.attempted = 3
	scaled, raw := endToEndValues(rep)
	want := map[string][2]float64{ // raw, scaled
		"setup_s": {3, 1.5}, "p50_ms": {6, 3}, "tail_ms": {8, 4},
		"throughput_per_s": {1.5, 3}, "sim_minstr_per_s": {10, 20},
		"peak_rss_mb": {100, 100}, "success_rate": {1, 1}, "aptget_speedup": {1.5, 1.5},
	}
	for k, w := range want {
		if math.Abs(raw[k]-w[0]) > 1e-9 || math.Abs(scaled[k]-w[1]) > 1e-9 {
			t.Errorf("%s: raw %v scaled %v, want %v", k, raw[k], scaled[k], w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a.x", Start: 10, End: 40},
		{ID: 2, Parent: 1, Op: 1, Name: "b.y", Start: 20, End: 30},
		// Overlapping siblings cover 50..80 once, not 40 ns.
		{ID: 3, Parent: 0, Op: 1, Name: "c.z", Start: 50, End: 70},
		{ID: 4, Parent: 0, Op: 1, Name: "c.w", Start: 60, End: 80},
		// A child overrunning its parent is clipped to the parent.
		{ID: 5, Parent: 0, Op: 1, Name: "d.v", Start: 95, End: 120},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 30 - 5, 20, 10, 20, 20, 25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestBlockingBudget(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Op: 1, Name: "cpu.run.baseline", Start: 0, End: 6 * ms},
		{ID: 2, Parent: 0, Op: 1, Name: "analysis.analyze", Start: 6 * ms, End: 9 * ms},
		// Set-up is not on any op's blocking path.
		{ID: 3, Parent: -1, Op: 0, Name: "setup", Start: 10 * ms, End: 50 * ms},
		{ID: 4, Parent: 3, Op: 0, Name: "workloads.new", Start: 10 * ms, End: 50 * ms},
		{ID: 5, Parent: -1, Op: 2, Name: "op", Start: 50 * ms, End: 70 * ms},
		{ID: 6, Parent: 5, Op: 2, Name: "cpu.run.aptget", Start: 50 * ms, End: 60 * ms},
		{ID: 7, Parent: 6, Op: 2, Name: "workloads.verify", Start: 55 * ms, End: 60 * ms},
		{ID: 8, Parent: 5, Op: 2, Name: "analysis.analyze", Start: 60 * ms, End: 68 * ms},
	}
	ops := blockingOps(spans)
	if len(ops) != 2 {
		t.Fatalf("%d ops, want 2", len(ops))
	}
	if ops[0].layers["cpu"] != 6 || ops[0].layers["analysis"] != 3 || ops[0].total != 10 {
		t.Errorf("op 1 = %+v", ops[0])
	}
	if ops[1].layers["cpu"] != 5 || ops[1].layers["workloads"] != 5 || ops[1].layers["analysis"] != 8 {
		t.Errorf("op 2 = %+v", ops[1])
	}
	if _, ok := ops[0].layers["workloads"]; ok {
		t.Errorf("set-up time leaked into op 1: %+v", ops[0])
	}
	b := summarize(ops)
	// Attributed per op: 9 and 18; the median of two is their mean.
	if b.Ops != 2 || b.OpMs != 15 || b.AttributedMs != 13.5 {
		t.Errorf("budget %+v", b)
	}
	// A layer absent from an op counts as 0 there: workloads is [0 5].
	if b.LayerMs["workloads"] != 2.5 || b.LayerMs["analysis"] != 5.5 {
		t.Errorf("layer medians %v", b.LayerMs)
	}
}

func TestServeOpBudget(t *testing.T) {
	o := serveOpBudget(map[string]float64{
		"op": 10, "http.ingest": 7, "http.plans": 2, "wire.decode_plans": 0.5,
		"service.ingest": 5, "service.plans": 1,
		"wire.decode_profile": 3, "planstore.get": 0.5,
		"router.direct": 8,
	})
	want := map[string]float64{
		"wire": 3.5, "planstore": 0.5, "service": 2.5, "router": 1, "http": 2,
		"workloads": 0, "ir": 0, "profile": 0, "analysis": 0,
	}
	if !reflect.DeepEqual(o.layers, want) || o.total != 10 {
		t.Fatalf("budget %+v, want %v", o, want)
	}
}

func TestOutcomeGuard(t *testing.T) {
	cases := []struct {
		workload string
		outcomes map[string]int64
		ok       bool
	}{
		{"serve-hit", map[string]int64{"hit": 100}, true},
		{"serve-hit", map[string]int64{"hit": 99, "stale_match": 1}, true},
		{"serve-hit", map[string]int64{"hit": 99, "miss": 1}, false},
		{"fleet-hit", map[string]int64{"hit": 9, "miss": 1}, false},
		{"fleet-hit", map[string]int64{"hit": 9, "handoff": 1}, false},
		{"serve-cold", map[string]int64{"miss": 30}, true},
		{"serve-cold", map[string]int64{"miss": 29, "hit": 1}, false},
		{"serve-cold", map[string]int64{"miss": 29, "stale_match": 1}, false},
		{"serve-cold", map[string]int64{"miss": 29, "aggregated": 1}, false},
	}
	for _, c := range cases {
		err := checkOutcomes(c.workload, c.outcomes)
		if (err == nil) != c.ok {
			t.Errorf("%s %v: err=%v, want ok=%v", c.workload, c.outcomes, err, c.ok)
		}
	}
}

func TestOutputChecksRejectBadInput(t *testing.T) {
	plans := []analysis.Plan{{LoadName: "dist[col[e]]", Site: analysis.SiteOuter,
		Distance: 5, InnerDistance: 16, OuterDistance: 5, AvgTrip: 3.714}}
	got := goldenLines("BFS", plans)
	golden := parseGolden(`BFS load=dist[col[e]] site=outer dist=5 inner=16 outer=5 trip=3.71 fb=""
DFS (no plans)
`)
	if err := checkGolden("BFS", got, golden); err != nil {
		t.Fatalf("matching plans rejected: %v", err)
	}
	if err := checkGolden("DFS", goldenLines("DFS", nil), golden); err != nil {
		t.Fatalf("matching empty plan set rejected: %v", err)
	}
	bad := append([]analysis.Plan(nil), plans...)
	bad[0].Distance = 6
	if err := checkGolden("BFS", goldenLines("BFS", bad), golden); err == nil {
		t.Error("a changed distance passed the golden check")
	}
	if err := checkGolden("BFS", goldenLines("BFS", append(plans, plans...)), golden); err == nil {
		t.Error("an extra plan passed the golden check")
	}
	if err := checkGolden("CG", goldenLines("CG", plans), golden); err == nil {
		t.Error("an app missing from the golden passed")
	}
	if err := checkPlanBytes("x", []byte{1, 2}, []byte{1, 2}); err != nil {
		t.Errorf("equal bytes rejected: %v", err)
	}
	if err := checkPlanBytes("x", []byte{1, 2}, []byte{1, 3}); err == nil {
		t.Error("different plan bytes passed")
	}
}

func TestRepoGoldenHasReproduceApps(t *testing.T) {
	golden, err := loadGolden("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range reproduceApps {
		if len(golden[app]) == 0 {
			t.Errorf("golden has no lines for %s", app)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the command prints
// in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s %s here, %s %s in BENCHMARK.json",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := genInputs(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	t.Logf("workloads: %s", strings.Join(names, ", "))
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"--workload", "reproduce", "--trace", "2"}, &out, &errb); code == 0 {
		t.Error("--trace 2 exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("a rejected command line printed a result")
	}
}
