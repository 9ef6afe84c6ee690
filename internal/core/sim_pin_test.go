package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"aptget/internal/core"
	"aptget/internal/workloads"
)

// simCounterPins are SHA-256 digests of the %+v of the baseline,
// Ainsworth & Jones and APT-GET counters (every mem.Stats field
// included) of the reproduce workload's three apps. Any change to the
// simulator's timing model or cache policy shows up here; a pure speed-up
// of the simulator must leave every digest unchanged.
var simCounterPins = map[string]string{
	"DFS":  "7d675418ef64c4cf5a7a164bcf6e78501ed8de64953cb374f0731ecd54910844",
	"G500": "b99fe0a316d1b6f454d8ff6ee53527ebd8345111a04371d79768c371f751a479",
	"BFS":  "8906d8ad914ead39df9db19a1da9dbc84356058b9d442bc3e59fd0f2f310cfe2",
}

func TestSimCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three apps three times each")
	}
	for _, key := range []string{"DFS", "G500", "BFS"} {
		e, ok := workloads.ByKey(key)
		if !ok {
			t.Fatalf("no workload %s", key)
		}
		c, err := core.Compare(e.New(), core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		h := sha256.New()
		for _, r := range []*core.Result{c.Base, c.Static, c.AptGet} {
			fmt.Fprintf(h, "%s %+v\n", r.Variant, r.Counters)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != simCounterPins[key] {
			t.Errorf("%s counters drifted: digest %s, pinned %s\nbaseline %+v\nstatic   %+v\napt-get  %+v",
				key, got, simCounterPins[key], c.Base.Counters, c.Static.Counters, c.AptGet.Counters)
		}
	}
}
