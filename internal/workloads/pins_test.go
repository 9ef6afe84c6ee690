package workloads

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aptget/internal/core"
)

// builtShape returns the shape a graph workload's constructor derived
// from its dataset and native run.
func builtShape(w core.Workload) (graphShape, bool) {
	switch w := w.(type) {
	case *BFS:
		return w.shape, true
	case *DFS:
		return w.shape, true
	case *PageRank:
		return w.shape, true
	case *BC:
		return w.shape, true
	case *SSSP:
		return w.shape, true
	}
	return graphShape{}, false
}

// pinLiteral renders a shape as its graphPins entry.
func pinLiteral(key string, s graphShape) string {
	ints := func(xs []int64) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return "[]int64{" + strings.Join(parts, ", ") + "}"
	}
	f := []string{fmt.Sprintf("N: %d", s.N), fmt.Sprintf("M: %d", s.M)}
	if s.Levels != nil {
		f = append(f, "Levels: "+ints(s.Levels))
	}
	if s.Rounds != 0 {
		f = append(f, fmt.Sprintf("Rounds: %d", s.Rounds))
	}
	if s.Sources != nil {
		f = append(f, "Sources: "+ints(s.Sources))
	}
	return fmt.Sprintf("%q: {%s},", key, strings.Join(f, ", "))
}

// TestProgramWithoutData holds every entry's Program to the program its
// workload builds from the generated dataset: the same instructions
// (hence the same PCs, which a received profile refers to) and the same
// array layout. A graph workload whose pin has drifted fails with the
// literal to paste into pins.go.
func TestProgramWithoutData(t *testing.T) {
	entries := append(append(Registry(), PhasedRegistry()...), AdversarialRegistry()...)
	for _, e := range entries {
		t.Run(e.Key, func(t *testing.T) {
			if e.Program == nil {
				t.Fatal("entry has no Program")
			}
			w := e.New()
			want, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := builtShape(w); ok && !reflect.DeepEqual(s, graphPins[e.Key]) {
				t.Fatalf("pin drifted; in pins.go write\n\t%s", pinLiteral(e.Key, s))
			}
			got, err := e.Program()
			if err != nil {
				t.Fatal(err)
			}
			if got.Func.String() != want.Func.String() {
				t.Errorf("Program() instructions differ from New().Build()'s")
			}
			if !reflect.DeepEqual(got.Arrays, want.Arrays) || got.MemSize != want.MemSize {
				t.Errorf("Program() layout %+v (%d B), New().Build() %+v (%d B)",
					got.Arrays, got.MemSize, want.Arrays, want.MemSize)
			}
		})
	}
}

// TestProgramAllocatesNoDataset bounds what Program allocates for the
// apps the plan service misses on most, far below the CSR arrays of
// their datasets (P2P, WG, KRON: 1.5–5 MiB as int64), so the miss path
// cannot quietly go back to generating the graph.
func TestProgramAllocatesNoDataset(t *testing.T) {
	const bound = 1 << 20
	for _, key := range []string{"DFS", "BFS", "G500"} {
		e, _ := ByKey(key)
		pin := graphPins[key]
		if csr := (pin.N + 1 + pin.M) * 8; csr <= bound {
			t.Fatalf("%s: CSR arrays %d B do not exceed the %d B bound; the test shows nothing", key, csr, bound)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Program(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Program() allocated %d B", key, got)
		if got > bound {
			t.Errorf("%s: Program() allocated %d B, bound %d B", key, got, bound)
		}
	}
}
