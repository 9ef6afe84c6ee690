package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/planstore"
	"aptget/internal/profile"
	"aptget/internal/service"
	"aptget/internal/wire"
)

// tracedServe is a serve workload's traced window. Each op runs its
// blocking path (POST, GET, client decode) under an "op" root, then two
// replays under "replay" roots that are off the blocking path: the same
// requests through the service's handler with no socket, and the
// handler's path through the wire, planstore and (cold) analysis layer
// calls. Fleet ops add a direct round trip to the owning shard.
type tracedServe struct {
	tr  *tracer
	cfg core.Config
	env *serveEnv
	in  inputs
	rep *report
	log *opLog
	// untraced is the untraced window's log, for the cache hit ratio.
	untraced *opLog

	// replayStore and replaySrv stand in for the daemon in the replays.
	// Hit workloads fill the store with every window's served plans;
	// serve-cold starts both afresh each round, so each replay misses.
	replayStore *planstore.Store
	replaySrv   *service.Server

	mu          sync.Mutex
	opMs        []float64
	decodeBytes int64
}

func (tw *tracedServe) addOp(ms float64, decoded int) {
	tw.mu.Lock()
	tw.opMs = append(tw.opMs, ms)
	tw.decodeBytes += int64(decoded)
	tw.mu.Unlock()
}

func (tw *tracedServe) run(seconds float64) error {
	if tw.in.Workload == "serve-cold" {
		tw.replaySrv = service.New(service.Config{})
		coldRounds(tw.in, seconds, tw.env, tw, tw.log, tw.rep)
		tw.replaySrv.Close()
		return nil
	}
	root := tw.tr.begin(0, -1, "setup")
	for i := range tw.env.corpus {
		it := &tw.env.corpus[i]
		w := tw.env.warm[i]
		tw.tr.do(0, root, "planstore.put", func() error {
			tw.replayStore.Put(it.key(), planstore.Entry{Plans: w.plans, Source: w.source()})
			return nil
		})
	}
	tw.tr.end(root)
	closedLoop(seconds, passTickets(tw.in), tw.hitOp, func(time.Time) int { return 0 }, tw.log, tw.rep)
	return nil
}

// hitOp is one traced serve-hit or fleet-hit op.
func (tw *tracedServe) hitOp(c *http.Client, op int64, i int) (served, error) {
	it := &tw.env.corpus[i]
	t0 := time.Now()
	root := tw.tr.begin(op, -1, rootOp)
	s, err := doOp(tw.tr, op, root, c, tw.env.t.base, it)
	tw.tr.end(root)
	ms := msSince(t0)
	if err != nil {
		return s, err
	}
	srv := tw.env.t.shards[0]
	if tw.env.t.rt != nil {
		d, ok := tw.env.t.byAddr[s.shard]
		if !ok {
			return s, fmt.Errorf("router named unknown shard %q", s.shard)
		}
		srv = d
		replay := tw.tr.begin(op, -1, "replay")
		err := tw.tr.do(op, replay, "router.direct", func() error {
			_, err := doOp(nil, op, -1, c, "http://"+d.addr, it)
			return err
		})
		tw.tr.end(replay)
		if err != nil {
			return s, err
		}
	}
	if err := tw.replayHandler(op, srv.srv, it, s); err != nil {
		return s, err
	}
	if err := tw.replayLayers(op, it, s); err != nil {
		return s, err
	}
	tw.addOp(ms, len(it.body))
	return s, nil
}

// coldOp returns the traced op function of one serve-cold round on d.
func (tw *tracedServe) coldOp(d *daemon, nextOp func(int64) int64) opFunc {
	return func(c *http.Client, _ int64, i int) (served, error) {
		it := &tw.env.corpus[i]
		op := nextOp(1)
		t0 := time.Now()
		root := tw.tr.begin(op, -1, rootOp)
		s, err := doOp(tw.tr, op, root, c, "http://"+d.addr, it)
		tw.tr.end(root)
		ms := msSince(t0)
		if err != nil {
			return s, err
		}
		if err := tw.replayHandler(op, tw.replaySrv, it, s); err != nil {
			return s, err
		}
		if err := tw.replayLayers(op, it, s); err != nil {
			return s, err
		}
		tw.addOp(ms, len(it.body))
		return s, nil
	}
}

// endRound gives the next serve-cold round a fresh replay daemon and store.
func (tw *tracedServe) endRound() {
	tw.replaySrv.Close()
	tw.replaySrv = service.New(service.Config{})
	tw.replayStore = planstore.New(0)
}

// replayHandler sends the op's two requests through srv's handler with
// no socket and checks it serves the same plans.
func (tw *tracedServe) replayHandler(op int64, srv *service.Server, it *corpusItem, want served) error {
	root := tw.tr.begin(op, -1, "replay")
	defer tw.tr.end(root)
	rec := httptest.NewRecorder()
	tw.tr.do(op, root, "service.ingest", func() error {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(it.body)))
		return nil
	})
	var ing service.IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil || ing.Fingerprint != string(it.fp) {
		return fmt.Errorf("replayed ingest of %s: status %d: %s", it.win.App, rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	tw.tr.do(op, root, "service.plans", func() error {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plans/"+string(it.fp), nil))
		return nil
	})
	return checkPlanBytes("replayed handler "+it.win.App, rec.Body.Bytes(), want.plans)
}

// replayLayers walks the ingest handler's path through the layer calls
// — decode, cache lookup, and on a miss rebuild, select, analyze, encode
// and store — then the plan fetch's lookup, and checks the bytes.
func (tw *tracedServe) replayLayers(op int64, it *corpusItem, want served) error {
	root := tw.tr.begin(op, -1, "replay")
	defer tw.tr.end(root)
	tr := tw.tr
	var (
		wp  *wire.Profile
		fp  wire.Fingerprint
		err error
	)
	tr.do(op, root, "wire.decode_profile", func() error {
		wp, fp, err = wire.DecodeProfileFrom(bytes.NewReader(it.body))
		return nil
	})
	if err != nil {
		return err
	}
	key := planstore.Key{Profile: fp, Shape: wp.ShapeHash()}
	var hit bool
	tr.do(op, root, "planstore.get", func() error {
		_, _, hit = tw.replayStore.TryGet(key)
		return nil
	})
	if !hit {
		if tw.in.Workload != "serve-cold" {
			return fmt.Errorf("replayed lookup of %s missed", it.win.App)
		}
		plans, err := tw.computePlans(op, root, wp)
		if err != nil {
			return err
		}
		tr.do(op, root, "planstore.put", func() error {
			tw.replayStore.Put(key, planstore.Entry{Plans: plans, Source: fp})
			return nil
		})
	}
	var e planstore.Entry
	var ok bool
	tr.do(op, root, "planstore.get", func() error {
		e, ok = tw.replayStore.Get(fp)
		return nil
	})
	if !ok {
		return fmt.Errorf("replayed plan fetch of %s missed", it.win.App)
	}
	return checkPlanBytes("replayed layers "+it.win.App, e.Plans, want.plans)
}

// computePlans is the service's cache-miss path as layer calls.
func (tw *tracedServe) computePlans(op int64, root int, wp *wire.Profile) ([]byte, error) {
	tr := tw.tr
	_, prog, err := newBuild(tr, op, root, wp.App)
	if err != nil {
		return nil, err
	}
	prof := wp.ToProfile()
	tr.do(op, root, "profile.select", func() error {
		prof.Loads = profile.SelectLoads(prof.Loads, prof.Counters.Instructions, tw.cfg.Profile)
		return nil
	})
	var plans []analysis.Plan
	if err := tr.do(op, root, "analysis.analyze", func() error {
		var err error
		plans, err = analysis.Analyze(prog, prof, tw.cfg.Analysis)
		return err
	}); err != nil {
		return nil, err
	}
	var b []byte
	tr.do(op, root, "wire.encode_plans", func() error {
		b = wire.EncodePlanSet(wire.PlanSetFromAnalysis(wp.App, plans, tw.cfg.Analysis))
		return nil
	})
	return b, nil
}

// finish derives the per-layer metrics from the spans and writes them.
func (tw *tracedServe) finish(opt options, v *verifier) error {
	spans := tw.tr.snapshot()
	self := selfByName(spans)
	med := func(name string) float64 { return median(self[name]) }
	L := map[string]float64{
		"cpu.run_ms.baseline":    med("cpu.run.baseline"),
		"cpu.run_ms.aptget":      med("cpu.run.aptget"),
		"profile.collect_ms":     med("profile.collect"),
		"profile.select_us":      1e3 * med("profile.select"),
		"workloads.new_ms":       med("workloads.new"),
		"ir.build_ms":            med("ir.build"),
		"workloads.verify_ms":    med("workloads.verify"),
		"analysis.analyze_ms":    med("analysis.analyze"),
		"passes.aptget_ms":       med("passes.aptget"),
		"wire.decode_profile_ms": med("wire.decode_profile"),
		"wire.encode_plans_us":   1e3 * med("wire.encode_plans"),
		"wire.decode_plans_us":   1e3 * med("wire.decode_plans"),
		"planstore.get_us":       1e3 * med("planstore.get"),
		"planstore.put_us":       1e3 * med("planstore.put"),
		"service.ingest_ms":      med("service.ingest"), // leaf spans: self time is the handler's
		"service.plans_ms":       med("service.plans"),
		"service.rejected":       float64(refused.Load()),
	}
	if s := sum(self["wire.decode_profile"]); s > 0 {
		L["wire.decode_profile_mb_per_s"] = float64(tw.decodeBytes) / 1e6 / (s / 1e3)
	}

	// Per op: the socket round trip minus the handler's time for the same
	// requests, and (fleet) minus a direct round trip to the owning shard.
	perOp := map[int64]map[string]float64{}
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]float64{}
		}
		perOp[s.Op][s.Name] += float64(s.dur()) / 1e6
	}
	var overhead, hop []float64
	var ops []opTime
	for _, m := range perOp {
		o := serveOpBudget(m)
		ops = append(ops, o)
		overhead = append(overhead, o.layers["http"])
		if _, ok := m["router.direct"]; ok {
			hop = append(hop, o.layers["router"])
		}
	}
	L["service.http_overhead_ms"] = median(overhead)
	L["router.hop_ms"] = median(hop)
	if tw.env.t != nil && tw.env.t.rt != nil {
		L["router.failovers"] = float64(tw.env.t.rt.Counters()["router_failovers"])
	}

	// Counts are per corpus (and per app for the served-plan runs), so
	// they repeat exactly at a fixed seed.
	var runMs float64
	for _, n := range []string{"cpu.run.baseline", "cpu.run.aptget"} {
		runMs += sum(self[n])
	}
	var runInstr uint64
	var mpkiBase, mpkiApt, acc, late []float64
	for _, r := range v.runs {
		runInstr += r.base.Instructions + r.apt.Instructions
		L["passes.instrs_added"] += float64(r.instrsAdded)
		mpkiBase = append(mpkiBase, r.base.MPKI())
		mpkiApt = append(mpkiApt, r.apt.MPKI())
		acc = append(acc, r.apt.PrefetchAccuracy())
		late = append(late, r.apt.LatePrefetchRatio())
	}
	if runMs > 0 {
		L["cpu.sim_minstr_per_s"] = float64(runInstr) / 1e6 / (runMs / 1e3)
	}
	L["cpu.instructions"] = float64(runInstr)
	for i := range tw.env.corpus {
		it := &tw.env.corpus[i]
		L["cpu.instructions"] += float64(it.prof.Counters.Instructions)
		L["profile.lbr_samples"] += float64(len(it.prof.Samples))
		L["profile.delinquent_loads"] += float64(len(it.prof.Loads))
		if src, ok := v.source[i]; ok {
			L["analysis.plans"] += float64(len(v.plans[tw.env.corpus[src].fp]))
		}
	}
	L["mem.llc_mpki.baseline"] = mean(mpkiBase)
	L["mem.llc_mpki.aptget"] = mean(mpkiApt)
	L["mem.prefetch_accuracy"] = mean(acc)
	L["mem.late_prefetch_ratio"] = mean(late)

	// Cache reuse over every client-visible ingest: warm-up and both
	// windows.
	outcomes := map[string]int64{}
	for _, s := range tw.env.warm {
		outcomes[s.ing.Outcome]++
	}
	for _, l := range []*opLog{tw.untraced, tw.log} {
		for k, n := range l.outcomes {
			outcomes[k] += n
		}
	}
	var all int64
	for _, n := range outcomes {
		all += n
	}
	if all > 0 {
		L["planstore.hit_ratio"] = float64(outcomes["hit"]+outcomes["stale_match"]) / float64(all)
	}

	traceShares(L, ops, tw.rep, tw.in.Workload)
	tw.rep.note("traced: %s", latencySummary(tw.opMs, nil, 0))
	tw.rep.layer = L
	return tw.tr.write(traceFile(opt.traceDir, tw.in))
}

// replayedLayers are the layer calls the replays make inside the
// handler's time.
var replayedLayers = []string{
	"wire.decode_profile", "planstore.get", "planstore.put", "workloads.new",
	"ir.build", "profile.select", "analysis.analyze", "wire.encode_plans",
}

// serveOpBudget splits one traced op's blocking path (the socket round
// trip plus the client's decode) by layer, using its replays: the
// handler's time less the replayed layer calls is the service's own, the
// round trip less the handler's time is HTTP and loopback overhead, and
// in a fleet the router's round trip less a direct one is the hop.
// m holds the op's span durations in milliseconds by name.
func serveOpBudget(m map[string]float64) opTime {
	o := opTime{total: m[rootOp], layers: map[string]float64{}}
	handler := m["service.ingest"] + m["service.plans"]
	inner := 0.0
	for _, n := range replayedLayers {
		o.layers[layerOf(n)] += m[n]
		inner += m[n]
	}
	o.layers["service"] = handler - inner
	roundTrip := m["http.ingest"] + m["http.plans"]
	if direct, ok := m["router.direct"]; ok {
		o.layers["router"] = roundTrip - direct
		roundTrip = direct
	}
	o.layers["http"] = roundTrip - handler
	o.layers["wire"] += m["wire.decode_plans"]
	return o
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
