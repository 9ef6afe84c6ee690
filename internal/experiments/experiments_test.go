package experiments

import (
	"strings"
	"testing"

	"aptget/internal/analysis"
)

// The experiment tests assert the *shapes* the paper reports, not
// absolute numbers (see EXPERIMENTS.md). Quick mode restricts the app
// sweeps; the memoised per-app comparisons and distance sweeps are
// shared across tests.

func quickOpt() Options { return Options{Quick: true} }

func TestTable1Shapes(t *testing.T) {
	res, err := Table1(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(res.Rows))
	}
	none, d1, d64, d1024 := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	if none.PrefetchAccuracy != 0 || none.LatePrefetch != 0 {
		t.Fatal("no-prefetch row must have zero prefetch metrics")
	}
	// §2.3 observations: moderate distances are accurate; distance 1 is
	// mostly late; a distance beyond the trip count collapses accuracy.
	if d1.PrefetchAccuracy < 0.5 || d64.PrefetchAccuracy < 0.5 {
		t.Fatalf("distances 1/64 should be accurate: %+v %+v", d1, d64)
	}
	if d1024.PrefetchAccuracy > 0.2 {
		t.Fatalf("distance 1024 accuracy should collapse: %+v", d1024)
	}
	if d1.LatePrefetch < 0.3 {
		t.Fatalf("distance 1 should be mostly late: %+v", d1)
	}
	if d64.LatePrefetch > 0.1 {
		t.Fatalf("distance 64 should be timely: %+v", d64)
	}
	if d64.IPC <= none.IPC {
		t.Fatal("timely prefetching must raise IPC")
	}
	if !strings.Contains(res.String(), "Dist-64") {
		t.Fatal("render missing rows")
	}
}

func TestFig1Shapes(t *testing.T) {
	res, err := Fig1(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("want 3 complexity series, got %d", len(res.Series))
	}
	low, med, high := res.Series[0], res.Series[1], res.Series[2]
	// The optimal distance shrinks as the work function grows (Figure 1's core insight: IC_latency up → distance down).
	if !(low.Best >= med.Best && med.Best >= high.Best) {
		t.Fatalf("optimal distances should decrease with complexity: %d/%d/%d",
			low.Best, med.Best, high.Best)
	}
	if low.Best == high.Best {
		t.Fatalf("low and high complexity should differ: %d == %d", low.Best, high.Best)
	}
	// Substantial gains at the optimum; regression at distance 1024.
	for _, s := range res.Series {
		if best := maxOf(s.Speedups); best < 1.5 {
			t.Fatalf("%s: peak speedup too small: %v", s.Label, best)
		}
		if last := s.Speedups[len(s.Speedups)-1]; last > 1.1 {
			t.Fatalf("%s: distance 1024 should not help: %v", s.Label, last)
		}
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestFig2Shapes(t *testing.T) {
	res, err := Fig2(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("want 3 trip-count series, got %d", len(res.Series))
	}
	trip4, trip64 := res.Series[0], res.Series[2]
	// §2.4: low trip counts profit far less from inner-loop injection
	// and need smaller distances.
	if maxOf(trip4.Speedups) >= maxOf(trip64.Speedups) {
		t.Fatalf("trip 4 (%.2f) should profit less than trip 64 (%.2f)",
			maxOf(trip4.Speedups), maxOf(trip64.Speedups))
	}
	if trip4.Best > 8 {
		t.Fatalf("trip 4 optimum should be a small distance, got %d", trip4.Best)
	}
}

func TestFig4Shapes(t *testing.T) {
	res, err := Fig4(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Peaks) < 2 {
		t.Fatalf("latency distribution should be multi-modal, peaks=%v", res.Peaks)
	}
	if res.MC < 100 {
		t.Fatalf("memory component should be DRAM-sized, got %.0f", res.MC)
	}
	if res.IC <= 0 || res.IC >= res.MC {
		t.Fatalf("instruction component implausible: IC=%.0f MC=%.0f", res.IC, res.MC)
	}
	if res.Distance < 2 {
		t.Fatalf("derived distance too small: %d", res.Distance)
	}
	if res.NumLatencies < 100 {
		t.Fatalf("too few latency observations: %d", res.NumLatencies)
	}
}

func TestFig5Through11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison sweep is slow in -short mode")
	}
	o := quickOpt()

	f5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Average < 0.4 {
		t.Fatalf("selected apps should be memory bound, avg %.2f", f5.Average)
	}

	f6, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if f6.AptGetGeoMean <= 1.0 {
		t.Fatalf("APT-GET should speed up on average: %.2f", f6.AptGetGeoMean)
	}
	if f6.AptGetGeoMean <= f6.StaticGeoMean {
		t.Fatalf("APT-GET geomean (%.2f) should beat static (%.2f)",
			f6.AptGetGeoMean, f6.StaticGeoMean)
	}
	for _, r := range f6.Rows {
		if r.AptGetSpeedup < 0.95 {
			t.Fatalf("APT-GET must not regress %s: %.2f", r.Key, r.AptGetSpeedup)
		}
	}

	f7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if f7.AptReduction <= 0 {
		t.Fatalf("APT-GET should cut misses, reduction %.2f", f7.AptReduction)
	}

	f11, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f11.Rows {
		if r.AptOverhead < 1.0 {
			t.Fatalf("%s: injected code cannot shrink instruction count: %.2f",
				r.Key, r.AptOverhead)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("site sweep is slow in -short mode")
	}
	res, err := Fig10(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig10Row{}
	for _, r := range res.Rows {
		byKey[r.Key] = r
	}
	hj8, ok := byKey["HJ8"]
	if !ok {
		t.Fatal("HJ8 missing from fig10")
	}
	// The paper's flagship site result: the bucketed hash join profits
	// from outer-loop injection far more than from inner-loop injection.
	if hj8.OuterSpeedup <= hj8.InnerSpeedup {
		t.Fatalf("HJ8 outer (%.2f) should beat inner (%.2f)",
			hj8.OuterSpeedup, hj8.InnerSpeedup)
	}
	dfs, ok := byKey["DFS"]
	if !ok {
		t.Fatal("DFS missing from fig10")
	}
	if dfs.ChosenSite != "inner" {
		t.Fatalf("DFS has no outer induction variable; site should be inner, got %s",
			dfs.ChosenSite)
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("input sweep is slow in -short mode")
	}
	res, err := Fig12(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Cross-input plans should deliver nearly the same speedup as
	// same-input plans (§4.9: no significant difference).
	for _, r := range res.Rows {
		if r.TestSpeedup < 0.85*r.TrainSpeedup {
			t.Fatalf("%s: cross-input plans lost too much: %.2f vs %.2f",
				r.Key, r.TestSpeedup, r.TrainSpeedup)
		}
	}
}

func TestDatasetsRender(t *testing.T) {
	res, err := Datasets(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"BFS", "HJ8", "web-Google", "kronecker"} {
		if !strings.Contains(s, want) {
			t.Fatalf("datasets output missing %q", want)
		}
	}
}

func TestForceDistanceAndSiteHelpers(t *testing.T) {
	plans := []analysis.Plan{
		{Site: analysis.SiteOuter, Distance: 9, InnerDistance: 16, OuterDistance: 9, AvgTrip: 3},
		{Site: analysis.SiteInner, Distance: 16, InnerDistance: 16},
	}
	fd := forceDistance(plans, 4)
	if fd[0].Distance != 4 || fd[0].OuterDistance != 4 || fd[1].InnerDistance != 4 {
		t.Fatalf("forceDistance wrong: %+v", fd)
	}
	if plans[0].Distance != 9 {
		t.Fatal("forceDistance must not mutate input")
	}
	fi := forceSite(plans, analysis.SiteInner)
	if fi[0].Site != analysis.SiteInner || fi[0].Distance != 16 {
		t.Fatalf("forceSite inner wrong: %+v", fi[0])
	}
	fo := forceSite(plans, analysis.SiteOuter)
	if fo[1].Site != analysis.SiteOuter || fo[1].Distance < 1 {
		t.Fatalf("forceSite outer wrong: %+v", fo[1])
	}
}

func TestRunnersRegistered(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("want 18 experiments, got %d: %v", len(names), names)
	}
	for _, id := range []string{"table1", "fig1", "fig6", "fig10", "fig12", "datasets", "replan"} {
		if _, ok := All()[id]; !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
}

func TestSiteSummary(t *testing.T) {
	if got := siteSummary(nil); got != "none" {
		t.Fatalf("empty = %q", got)
	}
	inner := analysis.Plan{Site: analysis.SiteInner}
	outer := analysis.Plan{Site: analysis.SiteOuter}
	if got := siteSummary([]analysis.Plan{inner, inner}); got != "inner" {
		t.Fatalf("all-inner = %q", got)
	}
	if got := siteSummary([]analysis.Plan{outer}); got != "outer" {
		t.Fatalf("all-outer = %q", got)
	}
	if got := siteSummary([]analysis.Plan{outer, inner}); got != "outer×1 inner×1" {
		t.Fatalf("mixed = %q", got)
	}
}

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow in -short mode")
	}
	res, err := Ablation(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 variants, got %d", len(res.Rows))
	}
	full := res.Rows[0]
	if full.Variant != "full APT-GET" {
		t.Fatalf("first row should be the full pipeline, got %s", full.Variant)
	}
	if full.Speedup <= 1.0 {
		t.Fatalf("full pipeline should speed up: %.2f", full.Speedup)
	}
	var innerOnly *AblationRow
	for i := range res.Rows {
		if res.Rows[i].Variant == "inner-loop only" {
			innerOnly = &res.Rows[i]
		}
	}
	if innerOnly == nil {
		t.Fatal("inner-only variant missing")
	}
	// The quick subset (HJ8, randAcc) depends on outer injection.
	if innerOnly.Speedup >= full.Speedup {
		t.Fatalf("inner-only (%.2f) should trail the full pipeline (%.2f) on HJ8",
			innerOnly.Speedup, full.Speedup)
	}
}

func TestLBRWidthShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("width sweep is slow in -short mode")
	}
	res, err := LBRWidth(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("quick mode should test 2 widths, got %d", len(res.Rows))
	}
	shallow, deep := res.Rows[0], res.Rows[1]
	if shallow.Width >= deep.Width {
		t.Fatal("rows should be ordered by width")
	}
	// A deeper ring sees more of each inner loop: measured trip counts
	// must not shrink.
	if deep.AvgTrip < shallow.AvgTrip {
		t.Fatalf("deeper LBR should not measure smaller trips: %.1f vs %.1f",
			deep.AvgTrip, shallow.AvgTrip)
	}
	if shallow.Speedup <= 0.9 || deep.Speedup <= 0.9 {
		t.Fatalf("plans should not regress at any width: %.2f / %.2f",
			shallow.Speedup, deep.Speedup)
	}
}

func TestFig6xShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset sweep is slow in -short mode")
	}
	res, err := Fig6x(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("quick sweep should have 3 cells, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.AptGetSpeedup < 0.95 {
			t.Fatalf("%s/%s: APT-GET must not regress: %.2f", r.App, r.Dataset, r.AptGetSpeedup)
		}
	}
	if res.AptGeoMean <= 1.0 {
		t.Fatalf("sweep geomean should exceed 1.0: %.2f", res.AptGeoMean)
	}
}
