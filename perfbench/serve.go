package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/ir"
	"aptget/internal/passes"
	"aptget/internal/planstore"
	"aptget/internal/profile"
	"aptget/internal/router"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// corpusItem is one collected profile window.
type corpusItem struct {
	win   window
	prof  *profile.Profile // as collected, for the local plan check
	body  []byte           // canonical wire encoding: the POST body
	fp    wire.Fingerprint
	shape wire.ShapeHash
}

func (it *corpusItem) key() planstore.Key { return planstore.Key{Profile: it.fp, Shape: it.shape} }

// daemon is one in-process aptgetd on a loopback listener.
type daemon struct {
	srv    *service.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for aptgetd: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: service.New(service.Config{}), addr: ln.Addr().String(),
		cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ctx, ln) }()
	return d, nil
}

func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// target is where the clients send: one daemon, or a router over shards.
type target struct {
	base     string
	shards   []*daemon
	byAddr   map[string]*daemon
	rt       *router.Router
	rtCancel context.CancelFunc
	rtDone   chan error
}

// fleetShards is the fleet-hit shard count.
const fleetShards = 2

func startTarget(fleet bool) (*target, error) {
	n := 1
	if fleet {
		n = fleetShards
	}
	t := &target{byAddr: map[string]*daemon{}}
	for i := 0; i < n; i++ {
		d, err := startDaemon()
		if err != nil {
			t.stop()
			return nil, err
		}
		t.shards = append(t.shards, d)
		t.byAddr[d.addr] = d
	}
	t.base = "http://" + t.shards[0].addr
	if !fleet {
		return t, nil
	}
	addrs := make([]string, 0, n)
	for _, d := range t.shards {
		addrs = append(addrs, d.addr)
	}
	rt, err := router.New(router.Config{Shards: addrs})
	if err != nil {
		t.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("listening for aptrouter: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.rt, t.rtCancel, t.rtDone = rt, cancel, make(chan error, 1)
	go func() { t.rtDone <- rt.Serve(ctx, ln) }()
	t.base = "http://" + ln.Addr().String()
	return t, nil
}

// stop shuts the router and every shard down and waits for them.
func (t *target) stop() {
	if t.rt != nil {
		t.rtCancel()
		<-t.rtDone
	}
	for _, d := range t.shards {
		d.stop()
	}
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients()},
		Timeout:   60 * time.Second,
	}
}

// served is what one op got back.
type served struct {
	ing   service.IngestResponse
	plans []byte
	shard string // X-Apt-Shard on the plan fetch (fleet only)
}

// source is the fingerprint the served plans were computed from.
func (s *served) source() wire.Fingerprint {
	if s.ing.SourceFingerprint != "" {
		return wire.Fingerprint(s.ing.SourceFingerprint)
	}
	return wire.Fingerprint(s.ing.Fingerprint)
}

// errRejected marks a 429: the op was refused, which counts as failed.
var errRejected = errors.New("refused with 429")

// refused counts the 429s clients saw, across every daemon of the run.
var refused atomic.Int64

// doOp is one client op: POST the profile window, then GET its plans and
// check they decode as a canonical plan set. With a tracer, each step is
// a span under parent.
func doOp(tr *tracer, op int64, parent int, c *http.Client, base string, it *corpusItem) (served, error) {
	var s served
	err := tr.do(op, parent, "http.ingest", func() error {
		resp, err := c.Post(base+"/v1/profiles", "application/octet-stream", bytes.NewReader(it.body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			refused.Add(1)
			return errRejected
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("ingest %s: status %d: %s", it.win.App, resp.StatusCode, strings.TrimSpace(string(msg)))
		}
		return json.NewDecoder(resp.Body).Decode(&s.ing)
	})
	if err != nil {
		return s, err
	}
	if s.ing.Fingerprint != string(it.fp) {
		return s, fmt.Errorf("server fingerprinted %s as %s, client computed %s", it.win.App, s.ing.Fingerprint, it.fp)
	}
	err = tr.do(op, parent, "http.plans", func() error {
		resp, err := c.Get(base + "/v1/plans/" + s.ing.Fingerprint)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			refused.Add(1)
			return errRejected
		}
		if s.plans, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("plans %s: status %d", it.win.App, resp.StatusCode)
		}
		s.shard = resp.Header.Get(router.HeaderShard)
		return nil
	})
	if err != nil {
		return s, err
	}
	err = tr.do(op, parent, "wire.decode_plans", func() error {
		_, err := wire.DecodePlanSet(s.plans)
		return err
	})
	return s, err
}

// serveEnv is one set-up of a serve workload.
type serveEnv struct {
	corpus []corpusItem
	byFP   map[wire.Fingerprint]int
	t      *target // nil for serve-cold: every round starts its own
	// warm holds what set-up's warm-up ingests returned, per item.
	warm []served
}

// collectWindow profiles one window the way service.CollectProfile does,
// with each layer call in a span.
func collectWindow(tr *tracer, root int, cfg core.Config, win window, sim *simClock) (corpusItem, error) {
	w, prog, err := newBuild(tr, 0, root, win.App)
	if err != nil {
		return corpusItem{}, err
	}
	popt := cfg.Profile
	popt.SamplePeriod = win.SamplePeriod
	var prof *profile.Profile
	t0 := time.Now()
	if err := tr.do(0, root, "profile.collect", func() error {
		var err error
		prof, err = profile.Collect(prog, cfg.Machine, w.InitMem, popt)
		return err
	}); err != nil {
		return corpusItem{}, fmt.Errorf("profiling %s: %w", win.App, err)
	}
	sim.add(prof.Counters.Instructions, time.Since(t0))
	wp := wire.ProfileOf(win.App, prog, prof)
	body := wire.EncodeProfile(wp)
	return corpusItem{win: win, prof: prof, body: body,
		fp: wire.FingerprintBytes(body), shape: wp.ShapeHash()}, nil
}

// newBuild generates an app's workload (its dataset) and builds its
// program, each in a span.
func newBuild(tr *tracer, op int64, root int, app string) (core.Workload, *ir.Program, error) {
	e, ok := workloads.ByKey(app)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q", app)
	}
	var w core.Workload
	tr.do(op, root, "workloads.new", func() error { w = e.New(); return nil })
	var prog *ir.Program
	err := tr.do(op, root, "ir.build", func() error {
		var err error
		prog, err = w.Build()
		return err
	})
	return w, prog, err
}

// simClock accumulates simulated instructions and the host time spent
// simulating them. Safe for concurrent use.
type simClock struct {
	mu    sync.Mutex
	instr uint64
	d     time.Duration
}

func (s *simClock) add(instr uint64, d time.Duration) {
	s.mu.Lock()
	s.instr += instr
	s.d += d
	s.mu.Unlock()
}

// parallel runs f(0) … f(n-1) on clients() goroutines and returns the
// error of the lowest index that failed.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveSetup collects the corpus, starts the target and, for the hit
// workloads, ingests every window once so the timed window holds no miss.
func serveSetup(in inputs, tr *tracer, cfg core.Config, sim *simClock) (*serveEnv, error) {
	root := tr.begin(0, -1, "setup")
	defer tr.end(root)
	// Profiles come from many hosts at once; collect them on every core.
	env := &serveEnv{byFP: map[wire.Fingerprint]int{}, corpus: make([]corpusItem, len(in.Windows))}
	if err := parallel(len(in.Windows), func(i int) error {
		var err error
		env.corpus[i], err = collectWindow(tr, root, cfg, in.Windows[i], sim)
		return err
	}); err != nil {
		return nil, err
	}
	for i, it := range env.corpus {
		if _, dup := env.byFP[it.fp]; dup {
			return nil, fmt.Errorf("windows %v collide on fingerprint %s", it.win, it.fp)
		}
		env.byFP[it.fp] = i
	}
	if in.Workload != "serve-cold" {
		t, err := startTarget(in.Workload == "fleet-hit")
		if err != nil {
			return nil, err
		}
		env.t = t
		c := newClient()
		for i := range env.corpus {
			s, err := doOp(nil, 0, -1, c, t.base, &env.corpus[i])
			if err != nil {
				t.stop()
				return nil, fmt.Errorf("warming %s: %w", env.corpus[i].win.App, err)
			}
			env.warm = append(env.warm, s)
		}
		c.CloseIdleConnections()
	}
	runtime.GC()
	return env, nil
}

// opLog gathers a window's per-op results. Safe for concurrent use.
type opLog struct {
	mu       sync.Mutex
	latMs    []float64
	groups   []int // tail group of each latency
	outcomes map[string]int64
	first    map[int]served // first served result per corpus item
}

func newOpLog() *opLog {
	return &opLog{outcomes: map[string]int64{}, first: map[int]served{}}
}

// record checks one op against the first op on the same item (every
// later op must get the same bytes from the same source) and logs it.
func (l *opLog) record(item int, s served, ms float64, group int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outcomes[s.ing.Outcome]++
	if f, ok := l.first[item]; ok {
		if f.source() != s.source() {
			return fmt.Errorf("item %d served from %s, earlier from %s", item, s.source(), f.source())
		}
		if err := checkPlanBytes(fmt.Sprintf("item %d", item), s.plans, f.plans); err != nil {
			return err
		}
	} else {
		l.first[item] = s
	}
	l.latMs = append(l.latMs, ms)
	l.groups = append(l.groups, group)
	return nil
}

// opFunc runs one op on corpus item i; it returns what was served.
type opFunc func(c *http.Client, op int64, i int) (served, error)

// ticketer hands out ops in order. Safe for concurrent use.
type ticketer struct {
	next atomic.Int64
	item func(n int64) (int, bool) // corpus item of the n-th op, if any
}

func (t *ticketer) take() (op int64, i int, ok bool) {
	n := t.next.Add(1)
	i, ok = t.item(n - 1)
	return n, i, ok
}

// closedLoop runs the clients over the tickets until the window ends (at
// the first ticket drawn after seconds) and returns its length. group
// names the tail group of an op that started at t0.
func closedLoop(seconds float64, tk *ticketer, do opFunc, group func(t0 time.Time) int, log *opLog, rep *report) float64 {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				op, i, ok := tk.take()
				if !ok {
					return
				}
				t0 := time.Now()
				s, err := do(client, op, i)
				ms := msSince(t0)
				if err == nil {
					err = log.record(i, s, ms, group(t0))
				}
				if err != nil {
					rep.fail(true, err)
					continue
				}
				rep.ok()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// tailSlices is how many slices a hit window runs in: each slice is a
// tail group and holds well over a thousand ops, so each has a p99.
const tailSlices = 5

// passTickets walks the seed-drawn passes over the corpus, forever.
func passTickets(in inputs) *ticketer {
	per := int64(len(in.Order[0]))
	return &ticketer{item: func(n int64) (int, bool) {
		pass := in.Order[(n/per)%int64(len(in.Order))]
		return pass[n%per], true
	}}
}

func runServe(in inputs, opt options) (*report, error) {
	cfg := core.DefaultConfig()
	service.FillPipeline(&cfg)
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rep := &report{ref: newReference()}
	rep.ref.sample()
	sim := &simClock{}
	var env *serveEnv
	for i := 0; i < setupRepeats; i++ {
		if env != nil && env.t != nil {
			env.t.stop()
		}
		t0 := time.Now()
		var err error
		if env, err = serveSetup(in, tr, cfg, sim); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		rep.ref.sample()
	}
	cold := in.Workload == "serve-cold"
	if !cold {
		defer env.t.stop()
	}

	// Untraced window.
	log := newOpLog()
	if cold {
		rep.windowS = coldRounds(in, opt.seconds, env, nil, log, rep)
	} else {
		// The window runs in tailSlices slices, each its own tail group,
		// with the reference sampled between them.
		base := env.t.base
		tk := passTickets(in)
		for k := 0; k < tailSlices; k++ {
			rep.windowS += closedLoop(opt.seconds/tailSlices, tk, func(c *http.Client, _ int64, i int) (served, error) {
				return doOp(nil, 0, -1, c, base, &env.corpus[i])
			}, func(time.Time) int { return k }, log, rep)
			rep.ref.sample()
		}
	}
	rep.latMs, rep.groups = log.latMs, log.groups
	rep.rssMB = peakRSSMB()
	rep.note("setup_s per set-up: %.3f", rep.setupS)
	rep.note("untraced: %s outcomes=%v", latencySummary(rep.latMs, rep.groups, rep.windowS), log.outcomes)
	if err := checkOutcomes(in.Workload, log.outcomes); err != nil {
		rep.fail(false, err)
	}

	// Traced window, with replays of each op through the layer calls.
	var tw *tracedServe
	if opt.trace {
		tw = &tracedServe{tr: tr, cfg: cfg, env: env, in: in, rep: rep, log: newOpLog(),
			untraced: log, replayStore: planstore.New(0)}
		if err := tw.run(opt.seconds); err != nil {
			return nil, err
		}
		if err := checkOutcomes(in.Workload, tw.log.outcomes); err != nil {
			rep.fail(false, fmt.Errorf("traced: %w", err))
		}
	}

	// Every served plan set must equal the plans computed locally, with
	// the pipeline's analysis, from the profile the server says it used.
	v := &verifier{tr: tr, cfg: cfg, env: env, local: map[wire.Fingerprint][]byte{}, plans: map[wire.Fingerprint][]analysis.Plan{}}
	logs := []*opLog{log}
	if tw != nil {
		logs = append(logs, tw.log)
	}
	for _, l := range logs {
		for i, s := range l.first {
			if err := v.check(in.Workload, i, s); err != nil {
				rep.fail(false, err)
			}
		}
	}
	for i, s := range env.warm {
		if err := v.check(in.Workload, i, s); err != nil {
			rep.fail(false, fmt.Errorf("warm-up: %w", err))
		}
	}
	if in.Workload == "fleet-hit" {
		// A single daemon warmed in corpus order serves each window from
		// the first window of its shape; a fleet serves it from the first
		// window of its shape that reached the same shard.
		if n := v.shapeDivergence(); n > 0 {
			rep.note("fleet: %d window(s) served from a different same-shape source than a single daemon would use", n)
		}
	}

	// Apply each app's served plans, run the optimized build, and check
	// its result: the speedup the served plans buy.
	if err := v.speedups(rep, sim); err != nil {
		return nil, err
	}
	rep.simInstr, rep.simS = sim.instr, sim.d.Seconds()
	if tw != nil {
		if err := tw.finish(opt, v); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// coldRounds runs rounds on fresh daemons until the window ends: every
// request in a round is the first profile of its shape that daemon sees.
// It returns the time the rounds ran, daemon starts and stops included.
func coldRounds(in inputs, seconds float64, env *serveEnv, tw *tracedServe, log *opLog, rep *report) float64 {
	var active float64
	var op atomic.Int64
	for r := 0; ; r++ {
		round := in.Order[r%len(in.Order)]
		t0 := time.Now()
		d, err := startDaemon()
		if err != nil {
			rep.fail(true, err)
			break
		}
		var do opFunc = func(c *http.Client, _ int64, i int) (served, error) {
			return doOp(nil, 0, -1, c, "http://"+d.addr, &env.corpus[i])
		}
		if tw != nil {
			do = tw.coldOp(d, op.Add)
		}
		closedLoop(math.MaxInt32, &ticketer{item: func(n int64) (int, bool) {
			if n >= int64(len(round)) {
				return 0, false
			}
			return round[n], true
		}}, do, func(time.Time) int { return r }, log, rep)
		d.stop()
		active += time.Since(t0).Seconds()
		if tw != nil {
			tw.endRound()
		} else {
			rep.ref.sample()
		}
		if active >= seconds {
			break
		}
	}
	return active
}

// verifier computes plans locally and checks served bytes against them.
type verifier struct {
	tr    *tracer
	cfg   core.Config
	env   *serveEnv
	local map[wire.Fingerprint][]byte
	plans map[wire.Fingerprint][]analysis.Plan
	// source records, per item, the corpus index it was served from.
	source map[int]int
	// runs are the served-plan runs, one per app.
	runs []*planRun
}

// localPlans runs the pipeline's analysis on the collected profile of
// corpus item i and encodes the plan set as the service would.
func (v *verifier) localPlans(i int) ([]byte, error) {
	it := &v.env.corpus[i]
	if b, ok := v.local[it.fp]; ok {
		return b, nil
	}
	root := v.tr.begin(0, -1, "verify")
	defer v.tr.end(root)
	_, prog, err := newBuild(v.tr, 0, root, it.win.App)
	if err != nil {
		return nil, err
	}
	var plans []analysis.Plan
	if err := v.tr.do(0, root, "analysis.analyze", func() error {
		var err error
		plans, err = analysis.Analyze(prog, it.prof, v.cfg.Analysis)
		return err
	}); err != nil {
		return nil, fmt.Errorf("analyzing %s locally: %w", it.win.App, err)
	}
	var b []byte
	v.tr.do(0, root, "wire.encode_plans", func() error {
		b = wire.EncodePlanSet(wire.PlanSetFromAnalysis(it.win.App, plans, v.cfg.Analysis))
		return nil
	})
	v.local[it.fp], v.plans[it.fp] = b, plans
	return b, nil
}

// check verifies one item's served result: the source is a corpus
// window of the same shape, serve-cold's source is the item itself, and
// the bytes equal the local plans of the source.
func (v *verifier) check(workload string, i int, s served) error {
	it := &v.env.corpus[i]
	src, ok := v.env.byFP[s.source()]
	if !ok {
		return fmt.Errorf("%s window %d: served from unknown source %s", it.win.App, i, s.source())
	}
	if v.env.corpus[src].shape != it.shape {
		return fmt.Errorf("%s window %d: served from a source of another shape", it.win.App, i)
	}
	if workload == "serve-cold" && src != i {
		return fmt.Errorf("%s window %d: cold request served from another window", it.win.App, i)
	}
	if v.source == nil {
		v.source = map[int]int{}
	}
	v.source[i] = src
	want, err := v.localPlans(src)
	if err != nil {
		return err
	}
	return checkPlanBytes(fmt.Sprintf("%s window %d", it.win.App, i), s.plans, want)
}

// shapeDivergence counts items served from another source than the one
// a single daemon warmed in corpus order would use: the first window of
// the item's shape.
func (v *verifier) shapeDivergence() int {
	firstOfShape := map[wire.ShapeHash]int{}
	for i, it := range v.env.corpus {
		if _, ok := firstOfShape[it.shape]; !ok {
			firstOfShape[it.shape] = i
		}
	}
	n := 0
	for i, src := range v.source {
		if firstOfShape[v.env.corpus[i].shape] != src {
			n++
		}
	}
	return n
}

// speedups injects each app's locally computed (and served-equal) plans
// of its first window, runs baseline and optimized builds, verifies both
// results and records the simulated speedup and memory counters.
func (v *verifier) speedups(rep *report, sim *simClock) error {
	var firsts []int // each app's first window
	seen := map[string]bool{}
	for i := range v.env.corpus {
		it := &v.env.corpus[i]
		if seen[it.win.App] {
			continue
		}
		seen[it.win.App] = true
		if _, err := v.localPlans(i); err != nil {
			return err
		}
		firsts = append(firsts, i)
	}
	runs := make([]*planRun, len(firsts))
	errs := make([]error, len(firsts))
	parallel(len(firsts), func(k int) error {
		it := &v.env.corpus[firsts[k]]
		e, _ := workloads.ByKey(it.win.App)
		root := v.tr.begin(0, -1, "verify")
		runs[k], errs[k] = runWithPlans(v.tr, root, e.New(), v.plans[it.fp], v.cfg, sim)
		v.tr.end(root)
		return nil
	})
	for k, r := range runs {
		app := v.env.corpus[firsts[k]].win.App
		if errs[k] != nil {
			rep.fail(false, fmt.Errorf("%s with served plans: %w", app, errs[k]))
			continue
		}
		rep.speedups = append(rep.speedups, r.apt.Speedup(&r.base))
		rep.note("app %-5s served plans speedup %.4fx mpki %.3f -> %.3f",
			app, r.apt.Speedup(&r.base), r.base.MPKI(), r.apt.MPKI())
		v.runs = append(v.runs, r)
	}
	return nil
}

// planRun is one baseline-vs-served-plans run pair.
type planRun struct {
	appResult
	instrsAdded int
}

// runWithPlans runs w's baseline and its build with plans injected.
func runWithPlans(tr *tracer, root int, w core.Workload, plans []analysis.Plan, cfg core.Config, sim *simClock) (*planRun, error) {
	r := &planRun{}
	for _, variant := range []string{"baseline", "aptget"} {
		var p *ir.Program
		if err := tr.do(0, root, "ir.build", func() error {
			var err error
			p, err = w.Build()
			return err
		}); err != nil {
			return nil, err
		}
		if variant == "aptget" {
			var prep *passes.Report
			if err := tr.do(0, root, "passes.aptget", func() error {
				var err error
				prep, err = passes.AptGet(p, plans, cfg.Inject)
				return err
			}); err != nil {
				return nil, err
			}
			r.instrsAdded = prep.InstrsAdded
		}
		t0 := time.Now()
		c, err := tracedExec(tr, 0, root, w, p, cfg, variant)
		if err != nil {
			return nil, err
		}
		sim.add(c.Instructions, time.Since(t0))
		if variant == "baseline" {
			r.base = c
		} else {
			r.apt = c
		}
	}
	return r, nil
}
