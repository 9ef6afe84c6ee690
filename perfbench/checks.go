package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"aptget/internal/analysis"
)

// goldenPath is the default-config plan golden, relative to the
// repository root the benchmark runs from.
const goldenPath = "internal/core/testdata/golden_plans.txt"

// goldenLines renders an app's plans in the golden file's line format
// (internal/core/golden_plans_test.go).
func goldenLines(app string, plans []analysis.Plan) []string {
	if len(plans) == 0 {
		return []string{app + " (no plans)"}
	}
	out := make([]string, 0, len(plans))
	for _, p := range plans {
		out = append(out, fmt.Sprintf("%s load=%s site=%s dist=%d inner=%d outer=%d trip=%.2f fb=%q",
			app, p.LoadName, p.Site, p.Distance, p.InnerDistance, p.OuterDistance,
			p.AvgTrip, p.Fallback))
	}
	return out
}

// loadGolden reads the golden file and groups its lines by app key.
func loadGolden(path string) (map[string][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading plan golden: %w", err)
	}
	return parseGolden(string(data)), nil
}

func parseGolden(text string) map[string][]string {
	byApp := make(map[string][]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		app, _, _ := strings.Cut(line, " ")
		byApp[app] = append(byApp[app], line)
	}
	return byApp
}

// checkGolden compares an app's rendered plans with its golden lines.
func checkGolden(app string, got []string, golden map[string][]string) error {
	want, ok := golden[app]
	if !ok {
		return fmt.Errorf("%s: no lines in the plan golden", app)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d plan lines, golden has %d", app, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: plan line %d\n  got  %s\n  want %s", app, i+1, got[i], want[i])
		}
	}
	return nil
}

// checkPlanBytes fails when served plan bytes differ from the expected.
func checkPlanBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served plan set (%d bytes) differs from the expected (%d bytes)",
			what, len(got), len(want))
	}
	return nil
}

// checkOutcomes is the timed-window guard: a hit workload that ran an
// analysis, or a cold workload that was served from cache, measured a
// different path than it claims to. Outcomes are the IngestResponse
// counts of the timed ops.
func checkOutcomes(workload string, outcomes map[string]int64) error {
	var bad []string
	switch workload {
	case "serve-hit", "fleet-hit":
		bad = []string{"miss", "aggregated", "handoff"}
	case "serve-cold":
		bad = []string{"hit", "stale_match", "aggregated", "handoff"}
	default:
		return nil
	}
	for _, o := range bad {
		if n := outcomes[o]; n > 0 {
			return fmt.Errorf("%s: %d timed op(s) had outcome %q", workload, n, o)
		}
	}
	return nil
}
