package aptget

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, each printing the regenerated rows (DESIGN.md §4
// maps them to paper artifacts; EXPERIMENTS.md records paper-vs-measured).
// Experiments are deterministic, so one iteration regenerates the exact
// published numbers of this repository. Experiments share one run
// cache, so after the first iteration in a process a figure benchmark
// reads its runs from the cache and times only the work that follows
// them; with -benchtime=1x the first benchmark to need a shared run
// pays for it.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure experiments take seconds to minutes each; a substrate
// microbenchmark at the bottom measures the peak detector. The
// simulator's own benchmarks (BenchmarkHotAccess, BenchmarkHotInterpreter,
// BenchmarkHotSim) live beside the code in internal/mem and internal/cpu.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aptget/internal/experiments"
	"aptget/internal/peaks"
)

var printOnce sync.Map

// runExperiment executes one experiment per benchmark iteration and
// prints its table once per process.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.All()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opt := experiments.Options{Quick: testing.Short()}
	for i := 0; i < b.N; i++ {
		res, err := runner(opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Printf("\n%s\n", res)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (accuracy/timeliness vs distance).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig1 regenerates Figure 1 (speedup vs distance per work
// complexity).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2 regenerates Figure 2 (speedup vs distance per trip count).
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig4 regenerates Figure 4 (loop latency distribution).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (memory-bound stall fractions).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (headline speedups).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (MPKI reduction).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (sweep optimum vs LBR distance).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (fixed distances vs LBR).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (inner vs outer site).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (instruction overhead).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (train/test generalization).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkDatasets regenerates Tables 3 and 4.
func BenchmarkDatasets(b *testing.B) { runExperiment(b, "datasets") }

// BenchmarkFig6x runs the extended dataset sweep (graph kernels across
// the Table 4 stand-ins, including the road-network anti-case).
func BenchmarkFig6x(b *testing.B) { runExperiment(b, "fig6x") }

// BenchmarkAblation disables the DESIGN.md §6 design choices one at a
// time.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkLBRWidth varies the branch-record depth (AMD BRS / ARM BRBE
// models).
func BenchmarkLBRWidth(b *testing.B) { runExperiment(b, "lbrwidth") }

// ---------------------------------------------------------------------
// Substrate microbenchmark: the peak detector.

// BenchmarkSubstrateCWT measures the peak detector on a Figure 4-sized
// histogram.
func BenchmarkSubstrateCWT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sig := make([]float64, 400)
	for _, c := range []int{40, 115, 200, 325} {
		for i := range sig {
			d := float64(i - c)
			sig[i] += 100 * math.Exp(-d*d/32)
		}
	}
	for i := range sig {
		sig[i] += rng.Float64()
	}
	widths := peaks.DefaultWidths(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := peaks.FindPeaksCWT(sig, widths, peaks.Options{}); len(got) == 0 {
			b.Fatal("no peaks")
		}
	}
}
