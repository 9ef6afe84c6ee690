package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// op share Op; Parent is the enclosing span's ID, or -1 for a root.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// rootOp names the root span of an op's blocking path: everything under
// it is work the op's caller waited for. Other roots (set-up, replays,
// verification) are reported per layer but are not on the blocking path.
const rootOp = "op"

// tracer records spans in memory; they are written out once, at the end
// of the run. A nil *tracer records nothing, so the untraced run calls
// the same helpers at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(op int64, parent int, name string, f func() error) error {
	id := t.begin(op, parent, name)
	err := f()
	t.end(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (spans
// opened from concurrent goroutines) are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf maps a span name to its module: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfByName collects self times, in milliseconds, per span name, over
// every span (blocking path, set-up, replays and verification alike).
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
	}
	return out
}

// budget is the per-layer time budget of the blocking path.
type budget struct {
	// Ops is the number of traced ops.
	Ops int
	// OpMs is the median traced op duration.
	OpMs float64
	// AttributedMs is the median, over ops, of the summed layer times —
	// the part of an op some layer call accounts for.
	AttributedMs float64
	// LayerMs is each layer's median per-op time.
	LayerMs map[string]float64
}

// opTime is one traced op: its duration and the time each layer took.
type opTime struct {
	total  float64
	layers map[string]float64
}

// summarize takes medians over ops.
func summarize(ops []opTime) budget {
	b := budget{Ops: len(ops), LayerMs: map[string]float64{}}
	if len(ops) == 0 {
		return b
	}
	var totals, attrs []float64
	perLayer := map[string][]float64{}
	for _, o := range ops {
		for l := range o.layers {
			perLayer[l] = nil
		}
	}
	for _, o := range ops {
		totals = append(totals, o.total)
		attr := 0.0
		for l := range perLayer {
			attr += o.layers[l]
			perLayer[l] = append(perLayer[l], o.layers[l])
		}
		attrs = append(attrs, attr)
	}
	b.OpMs = median(totals)
	b.AttributedMs = median(attrs)
	for l, xs := range perLayer {
		b.LayerMs[l] = median(xs)
	}
	return b
}

// blockingOps sums, per op, the self times of every span under the op's
// root by layer. The root's own self time is benchmark glue and stays
// unattributed.
func blockingOps(spans []span) []opTime {
	self := selfTimes(spans)
	root := make([]int, len(spans)) // root span ID of each span
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent] // parents are opened before children
		}
	}
	byRoot := map[int]int{} // root span ID -> index in ops
	var ops []opTime
	for i, s := range spans {
		r := root[i]
		if spans[r].Name != rootOp {
			continue
		}
		k, ok := byRoot[r]
		if !ok {
			k = len(ops)
			byRoot[r] = k
			ops = append(ops, opTime{total: float64(spans[r].dur()) / 1e6, layers: map[string]float64{}})
		}
		if s.Parent >= 0 {
			ops[k].layers[layerOf(s.Name)] += float64(self[i]) / 1e6
		}
	}
	return ops
}

// printBudget writes the per-layer budget against the untraced p50.
func printBudget(w io.Writer, workload string, b budget, p50 float64) {
	fmt.Fprintf(w, "budget %s: %d traced ops, traced op p50 %.3f ms, untraced p50 %.3f ms\n",
		workload, b.Ops, b.OpMs, p50)
	layers := make([]string, 0, len(b.LayerMs))
	for l := range b.LayerMs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return b.LayerMs[layers[i]] > b.LayerMs[layers[j]] })
	for _, l := range layers {
		if b.LayerMs[l] == 0 {
			continue // a replayed layer this workload never calls
		}
		fmt.Fprintf(w, "  %-10s %10.3f ms  %6.1f%% of p50\n", l, b.LayerMs[l], 100*b.LayerMs[l]/p50)
	}
	fmt.Fprintf(w, "  %-10s %10.3f ms  %6.1f%% of p50 (layer self times summed per op)\n",
		"attributed", b.AttributedMs, 100*b.AttributedMs/p50)
}
