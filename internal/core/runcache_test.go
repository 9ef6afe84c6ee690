package core

import (
	"reflect"
	"sync"
	"testing"

	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/mem"
	"aptget/internal/pmu"
)

// TestRunCacheKeysOnInitialMemory: two inputs that build the same
// program (Figure 12's train and test sets are such a pair) share one
// cache, yet each gets its own run, equal to its uncached run.
// Concurrent callers asking for one run wait for a single simulation,
// so only one of them verifies.
func TestRunCacheKeysOnInitialMemory(t *testing.T) {
	cached := DefaultConfig()
	cached.Runs = new(RunCache)
	var prog string
	var fresh []pmu.Counters
	for _, seed := range []int64{21, 99} {
		ws := make([]*countingWorkload, 4)
		for i := range ws {
			ws[i] = &countingWorkload{microWorkload: newMicro(1024, 4)}
			ws[i].seed = seed
		}
		p, err := ws[0].Build()
		if err != nil {
			t.Fatal(err)
		}
		if prog == "" {
			prog = p.Func.String()
		} else if p.Func.String() != prog {
			t.Fatal("the two inputs should build the same program")
		}
		want, err := RunBaseline(ws[0].microWorkload, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *countingWorkload) {
				defer wg.Done()
				got, err := RunBaseline(w, cached)
				if err != nil {
					t.Error(err)
				} else if got.Counters != want.Counters {
					t.Errorf("seed %d: cached run %+v, uncached %+v", seed, got.Counters, want.Counters)
				}
			}(w)
		}
		wg.Wait()
		var verifies int64
		for _, w := range ws {
			verifies += w.verifies.Load()
		}
		if verifies != 1 {
			t.Fatalf("seed %d: %d of %d cached runs verified, want 1", seed, verifies, len(ws))
		}
		fresh = append(fresh, want.Counters)
	}
	if fresh[0] == fresh[1] {
		t.Fatal("the two inputs should run differently")
	}
}

// TestRunCacheKeysOnSampling: profiling runs of one program at two PEBS
// periods share a cache but not their samples.
func TestRunCacheKeysOnSampling(t *testing.T) {
	cached := DefaultConfig()
	cached.Runs = new(RunCache)
	for _, period := range []uint64{13, 97} {
		fresh := DefaultConfig()
		fresh.Profile.PEBSPeriod = period
		want, _, err := ProfileAndPlan(newMicro(1024, 4), fresh)
		if err != nil {
			t.Fatal(err)
		}
		c := cached
		c.Profile.PEBSPeriod = period
		got, _, err := ProfileAndPlan(newMicro(1024, 4), c)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Loads) == 0 || !reflect.DeepEqual(got.Loads, want.Loads) {
			t.Fatalf("PEBS period %d: cached loads %+v, uncached %+v", period, got.Loads, want.Loads)
		}
	}
}

// keyProgram builds a loop holding every kind of instruction field the
// simulator reads: constants, operands, a select's third operand, a
// compare predicate, load and store sizes, phi predecessors and branch
// successors.
func keyProgram() *ir.Program {
	b := ir.NewBuilder("key")
	arr := b.Alloc("A", 64, 8)
	zero := b.Const(0)
	b.Loop("i", zero, b.Const(64), 1, func(i ir.Value) {
		x := b.LoadElem(arr, i)
		y := b.Select(b.Cmp(ir.PredLT, x, i), x, i)
		b.PrefetchElem(arr, y)
		b.StoreElem(arr, i, b.Add(y, zero))
	})
	return b.Finish()
}

// first returns the first instruction of f with op.
func first(t *testing.T, f *ir.Func, op ir.Op) *ir.Instr {
	for i := range f.Instrs {
		if f.Instrs[i].Op == op {
			return &f.Instrs[i]
		}
	}
	t.Fatalf("keyProgram has no %s", op)
	return nil
}

// TestRunKeyCoversWhatTheSimulatorReads: the run key prints the program
// with ir.Func.String, so a field the simulator reads but the printer
// leaves out would hand one program's run to another. Each edit below
// changes one thing a run reads and must change the key.
func TestRunKeyCoversWhatTheSimulatorReads(t *testing.T) {
	machine := mem.ConfigScaled()
	opts := cpu.Options{InitMem: func(*mem.Arena) {}}
	key := func(edit func(*ir.Program, *mem.Config, *cpu.Options)) [32]byte {
		p, m, o := keyProgram(), machine, opts
		edit(p, &m, &o)
		return runKey(p, m, o)
	}
	base := key(func(*ir.Program, *mem.Config, *cpu.Options) {})
	if key(func(*ir.Program, *mem.Config, *cpu.Options) {}) != base {
		t.Fatal("two builds of one program should share a key")
	}
	for _, c := range []struct {
		name string
		edit func(*ir.Program, *mem.Config, *cpu.Options)
	}{
		{"opcode", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { first(t, p.Func, ir.OpAdd).Op = ir.OpSub }},
		{"operand", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) {
			ins := first(t, p.Func, ir.OpAdd)
			ins.Args[1] = ins.Args[0]
		}},
		{"select's third operand", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) {
			ins := first(t, p.Func, ir.OpSelect)
			ins.Args[2] = ins.Args[1]
		}},
		{"constant", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { first(t, p.Func, ir.OpConst).Imm++ }},
		{"predicate", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { first(t, p.Func, ir.OpCmp).Pred = ir.PredEQ }},
		{"load size", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { first(t, p.Func, ir.OpLoad).Size = 4 }},
		{"store size", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { first(t, p.Func, ir.OpStore).Size = 4 }},
		{"phi predecessors", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) {
			pp := first(t, p.Func, ir.OpPhi).PhiPreds
			pp[0], pp[1] = pp[1], pp[0]
		}},
		{"branch successors", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) {
			b := p.Func.Blocks[first(t, p.Func, ir.OpBr).Block]
			b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
		}},
		{"instruction order", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) {
			b := p.Func.Blocks[first(t, p.Func, ir.OpStore).Block]
			b.Instrs[0], b.Instrs[1] = b.Instrs[1], b.Instrs[0]
		}},
		{"entry block", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { p.Func.Entry++ }},
		{"arena size", func(p *ir.Program, _ *mem.Config, _ *cpu.Options) { p.MemSize += 8 }},
		{"arena contents", func(_ *ir.Program, _ *mem.Config, o *cpu.Options) {
			o.InitMem = func(a *mem.Arena) { a.Write(0, 1, 8) }
		}},
		{"machine", func(_ *ir.Program, m *mem.Config, _ *cpu.Options) { m.DRAMLatency++ }},
		{"sample period", func(_ *ir.Program, _ *mem.Config, o *cpu.Options) { o.SamplePeriod = 1000 }},
		{"PEBS period", func(_ *ir.Program, _ *mem.Config, o *cpu.Options) { o.PEBSPeriod = 13 }},
		{"LBR width", func(_ *ir.Program, _ *mem.Config, o *cpu.Options) { o.LBRWidth = 64 }},
		{"instruction cap", func(_ *ir.Program, _ *mem.Config, o *cpu.Options) { o.MaxInstructions = 1 << 20 }},
	} {
		if key(c.edit) == base {
			t.Errorf("changing the %s leaves the run key unchanged", c.name)
		}
	}
}
