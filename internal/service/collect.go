package service

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/obs"
	"aptget/internal/profile"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// FillPipeline applies core's defaults to cfg (core.Config.Fill). Its
// caller is perfbench, which profiles locally under the configuration
// the daemon analyzes under.
func FillPipeline(cfg *core.Config) { cfg.Fill() }

// CollectProfile is the client half of the service: profile one registry
// workload the way core.ProfileAndPlan's first stage does and package
// the result for the wire. Returns the wire profile and its canonical
// encoding — the bytes a client POSTs to /v1/profiles. aptget
// -emit-profile, aptbench -loadgen and the smoke tests all build their
// payloads through this.
func CollectProfile(e workloads.Entry, cfg core.Config) (*wire.Profile, []byte, error) {
	cfg.Fill()
	w := e.New()
	prog, err := w.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("service: build %s: %w", e.Key, err)
	}
	sp := obs.Begin(e.Key+"/apt-get", obs.StageProfile)
	popt := cfg.Profile
	popt.Obs = sp
	prof, err := profile.Collect(prog, cfg.Machine, w.InitMem, popt)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("service: profiling %s: %w", e.Key, err)
	}
	wp := wire.ProfileOf(e.Key, prog, prof)
	return wp, wire.EncodeProfile(wp), nil
}
