package cpu

import (
	"errors"
	"fmt"

	"aptget/internal/ir"
	"aptget/internal/lbr"
	"aptget/internal/mem"
	"aptget/internal/pebs"
	"aptget/internal/pmu"
)

// State is a resumable execution of one program on one memory hierarchy:
// the register file, cycle and instruction counts, block cursor, LBR
// ring, samplers, and hierarchy of a run in flight. A State created by
// New and driven by Resume in any number of slices produces counters and
// LBR samples identical to a single uninterrupted run — pausing is
// invisible to the simulated machine. That is what makes checkpoint
// boundaries safe points for observation (Checkpoint) and for online
// re-planning (SwapPlan).
type State struct {
	prog *ir.Program
	f    *ir.Func
	opts Options

	h    *mem.Hierarchy
	ring *lbr.Record
	res  *Result

	regs    []int64
	slots   []slot   // decoded instruction per value
	firstPC []uint64 // per-block first-instruction PC (LBR targets)
	phiVals []int64  // scratch for two-phase phi resolution

	icount     uint64
	cycle      uint64
	nextSample uint64
	maxInstr   uint64
	sampling   bool

	cur  ir.BlockID
	prev ir.BlockID

	swapLo, swapHi ir.Value // value range the last SwapPlan injected
	swaps          int

	done bool
	err  error
}

// New prepares a resumable run: validates the program, assigns PCs,
// builds a fresh hierarchy, and seeds memory. No instruction executes
// until Resume.
func New(p *ir.Program, cfg mem.Config, opts Options) (*State, error) {
	f := p.Func
	if err := f.Validate(); err != nil {
		return nil, err
	}
	f.AssignPCs()

	h := mem.New(cfg, p.MemSize)
	if opts.InitMem != nil {
		opts.InitMem(h.Arena)
	}

	maxInstr := opts.MaxInstructions
	if maxInstr == 0 {
		maxInstr = defaultMaxInstructions
	}

	s := &State{
		prog:     p,
		f:        f,
		opts:     opts,
		h:        h,
		ring:     lbr.New(opts.LBRWidth),
		res:      &Result{Hier: h},
		maxInstr: maxInstr,
		sampling: opts.SamplePeriod > 0,
		cur:      f.Entry,
		prev:     ir.NoBlock,
	}
	s.nextSample = opts.SamplePeriod
	if opts.PEBSPeriod > 0 {
		s.res.PEBS = pebs.NewSampler(opts.PEBSPeriod)
	}
	s.regs = make([]int64, len(f.Instrs))
	s.growOperands(0)
	s.rebuildFirstPC()
	return s, nil
}

// slot is the decoded form of one instruction: everything Resume reads
// on the hot path, packed into 32 bytes instead of an ir.Instr's 104.
// Phis are resolved from the ir.Instr itself.
type slot struct {
	imm    int64 // OpConst: the constant; OpSelect: the third operand
	pc     uint64
	a0, a1 ir.Value
	op     ir.Op
	pred   ir.Pred
	size   uint8
}

// growOperands extends the register file and decodes values
// [from, len(f.Instrs)) into slots.
func (s *State) growOperands(from int) {
	fIns := s.f.Instrs
	for len(s.regs) < len(fIns) {
		s.regs = append(s.regs, 0)
	}
	for len(s.slots) < len(fIns) {
		s.slots = append(s.slots, slot{})
	}
	for i := from; i < len(fIns); i++ {
		ins := &fIns[i]
		sl := slot{imm: ins.Imm, pc: ins.PC, op: ins.Op, pred: ins.Pred, size: ins.Size}
		switch a := ins.Args; {
		case ins.Op == ir.OpSelect:
			sl.a0, sl.a1, sl.imm = a[0], a[1], int64(a[2])
		case len(a) > 1:
			sl.a0, sl.a1 = a[0], a[1]
		case len(a) == 1:
			sl.a0 = a[0]
		}
		s.slots[i] = sl
	}
}

func (s *State) rebuildFirstPC() {
	if s.firstPC == nil {
		s.firstPC = make([]uint64, len(s.f.Blocks))
	}
	for _, b := range s.f.Blocks {
		if len(b.Instrs) > 0 {
			s.firstPC[b.ID] = s.f.Instrs[b.Instrs[0]].PC
		}
	}
}

// Checkpoint is the live architectural state observable at a block
// boundary: the cycle, retired instructions, and a snapshot of the PMU
// counters (including the memory-system stats) as they stand mid-run.
type Checkpoint struct {
	Cycle        uint64
	Instructions uint64
	Block        ir.BlockID // next block to execute
	Counters     pmu.Counters
	LBRSamples   int // snapshots taken so far
	Swaps        int // SwapPlan calls so far
}

// Checkpoint snapshots the run's observable state. Valid between Resume
// calls (at a block boundary) and after completion.
func (s *State) Checkpoint() Checkpoint {
	ctr := s.res.Counters
	ctr.Instructions = s.icount
	ctr.Cycles = s.cycle
	ctr.Mem = s.h.Stats
	return Checkpoint{
		Cycle:        s.cycle,
		Instructions: s.icount,
		Block:        s.cur,
		Counters:     ctr,
		LBRSamples:   len(s.res.LBRSamples),
		Swaps:        s.swaps,
	}
}

// Done reports whether the run retired (or failed terminally).
func (s *State) Done() bool { return s.done }

// Err returns the terminal error, if the run failed.
func (s *State) Err() error { return s.err }

// Cycle returns the current cycle count.
func (s *State) Cycle() uint64 { return s.cycle }

// Swaps returns how many SwapPlan calls have been applied.
func (s *State) Swaps() int { return s.swaps }

// Program returns the program under execution. SwapPlan mutates it in
// place, so the returned pointer observes swaps.
func (s *State) Program() *ir.Program { return s.prog }

// Result returns the run's result. Counters are final only once Done;
// use Checkpoint for a mid-run snapshot. LBRSamples and PEBS accumulate
// live and may be read between Resume calls. The Hierarchy is owned by
// the caller once the run finishes (release it via Result.Hier.Release).
func (s *State) Result() *Result { return s.res }

// MarkSwappable records that values [lo, hi) of the program are injected
// prefetch code that a later SwapPlan may remove and replace. Callers
// that inject an initial plan before New (the usual flow: build, inject,
// New) pass the instruction-count watermarks around the injection pass.
func (s *State) MarkSwappable(lo, hi int) {
	s.swapLo, s.swapHi = ir.Value(lo), ir.Value(hi)
}

// ErrFinished is returned by SwapPlan on a completed run.
var ErrFinished = errors.New("cpu: run already finished")

// SwapPlan hot-swaps the injected prefetch code at a checkpoint
// boundary. It removes the previously injected value range from the
// block layout (the values stay in the function body as unreferenced
// orphans — by construction prefetch slices are self-contained, nothing
// else consumes them), then calls inject to add the new slices, which
// must only append instructions (the passes.AptGet pass with KeepPCs
// set). New instructions get fresh PCs above every existing PC, so the
// PCs of original code — and with them live LBR/PEBS samples and plan
// provenance — stay stable across swaps.
//
// Two already-executed-code rules keep the swap deterministic: new
// constants are materialized into the register file immediately (the
// pass hoists them into the entry block, which has already run), and
// inject must place non-constant instructions only in blocks that still
// execute (loop bodies), which the injection pass does by construction.
func (s *State) SwapPlan(inject func(*ir.Func) error) error {
	if s.done {
		return ErrFinished
	}
	f := s.f

	// Drop the previous plan's instructions from the block layout.
	if s.swapHi > s.swapLo {
		lo, hi := s.swapLo, s.swapHi
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, v := range b.Instrs {
				if v < lo || v >= hi {
					kept = append(kept, v)
				}
			}
			b.Instrs = kept
		}
	}

	n0 := len(f.Instrs)
	var maxPC uint64
	for i := range f.Instrs {
		if f.Instrs[i].PC > maxPC {
			maxPC = f.Instrs[i].PC
		}
	}

	if err := inject(f); err != nil {
		// Roll back: nothing outside [n0, len) can reference the new
		// values, so trimming the layout and the body restores the
		// pre-swap program.
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, v := range b.Instrs {
				if int(v) < n0 {
					kept = append(kept, v)
				}
			}
			b.Instrs = kept
		}
		f.Instrs = f.Instrs[:n0]
		s.rebuildFirstPC()
		return err
	}

	// Fresh PCs for the new instructions, above every existing PC.
	for v := n0; v < len(f.Instrs); v++ {
		f.Instrs[v].PC = maxPC + 1 + uint64(v-n0)
	}

	s.growOperands(n0)

	// Materialize new constants: the pass hoists them into the entry
	// block, which already executed, so they would otherwise read as 0.
	for v := n0; v < len(f.Instrs); v++ {
		if f.Instrs[v].Op == ir.OpConst {
			s.regs[v] = f.Instrs[v].Imm
		}
	}

	s.rebuildFirstPC()
	s.swapLo, s.swapHi = ir.Value(n0), ir.Value(len(f.Instrs))
	s.swaps++
	return nil
}

// fail flushes what retired before the error and marks the run terminal.
func (s *State) fail(icount, cycle, nextSample uint64, prev, cur ir.BlockID, err error) (bool, error) {
	s.icount, s.cycle, s.nextSample = icount, cycle, nextSample
	s.prev, s.cur = prev, cur
	s.res.Counters.Instructions = icount
	s.res.Counters.Cycles = cycle
	s.res.Counters.Mem = s.h.Stats
	s.done, s.err = true, err
	return true, err
}

// Resume executes from the saved block cursor until the program retires
// (returns true) or, when stop is non-zero, until the cycle count
// reaches stop — pausing at the next basic-block boundary (returns
// false). A paused State resumes exactly where it left off; splitting a
// run across any number of Resume calls is counter-identical to one
// uninterrupted call.
func (s *State) Resume(stop uint64) (bool, error) {
	if s.done {
		return true, s.err
	}

	f := s.f
	h := s.h
	res := s.res
	ring := s.ring
	ctr := &res.Counters

	// Hot-loop locals, reloaded each Resume: the instruction table and
	// operand caches may have been regrown by SwapPlan, and the counts
	// live in locals (flushed on pause/retire) exactly as in a
	// single-shot run.
	fIns := f.Instrs
	regs := s.regs
	slots := s.slots
	firstPC := s.firstPC
	sampling := s.sampling
	period := s.opts.SamplePeriod
	maxInstr := s.maxInstr
	icount := s.icount
	cycle := s.cycle
	nextSample := s.nextSample
	phiVals := s.phiVals

	prev := s.prev
	cur := f.Blocks[s.cur]

	for {
		// Checkpoint boundary: pause before entering the next block.
		if stop != 0 && cycle >= stop {
			s.icount, s.cycle, s.nextSample = icount, cycle, nextSample
			s.prev, s.cur = prev, cur.ID
			s.phiVals = phiVals
			return false, nil
		}

		instrs := cur.Instrs

		// Phase 1: phi resolution on block entry.
		nPhi := 0
		for _, v := range instrs {
			if slots[v].op != ir.OpPhi {
				break
			}
			nPhi++
		}
		if nPhi > 0 {
			phiVals = phiVals[:0]
			for i := 0; i < nPhi; i++ {
				ins := &fIns[instrs[i]]
				found := false
				for j, pb := range ins.PhiPreds {
					if pb == prev {
						phiVals = append(phiVals, regs[ins.Args[j]])
						found = true
						break
					}
				}
				if !found {
					return s.fail(icount, cycle, nextSample, prev, cur.ID,
						fmt.Errorf("cpu: %s: phi v%d has no incoming for pred b%d",
							f.Name, instrs[i], prev))
				}
			}
			for i := 0; i < nPhi; i++ {
				regs[instrs[i]] = phiVals[i]
			}
		}

		var nextBlock ir.BlockID = ir.NoBlock

		for _, v := range instrs[nPhi:] {
			ins := &slots[v]
			switch ins.op {
			case ir.OpConst:
				regs[v] = ins.imm
				cycle++

			case ir.OpAdd:
				regs[v] = regs[ins.a0] + regs[ins.a1]
				cycle++
			case ir.OpSub:
				regs[v] = regs[ins.a0] - regs[ins.a1]
				cycle++
			case ir.OpMul:
				regs[v] = regs[ins.a0] * regs[ins.a1]
				cycle += 3
			case ir.OpDiv:
				d := regs[ins.a1]
				if d == 0 {
					regs[v] = 0
				} else {
					regs[v] = regs[ins.a0] / d
				}
				cycle += 20
			case ir.OpRem:
				d := regs[ins.a1]
				if d == 0 {
					regs[v] = 0
				} else {
					regs[v] = regs[ins.a0] % d
				}
				cycle += 20
			case ir.OpAnd:
				regs[v] = regs[ins.a0] & regs[ins.a1]
				cycle++
			case ir.OpOr:
				regs[v] = regs[ins.a0] | regs[ins.a1]
				cycle++
			case ir.OpXor:
				regs[v] = regs[ins.a0] ^ regs[ins.a1]
				cycle++
			case ir.OpShl:
				regs[v] = regs[ins.a0] << uint64(regs[ins.a1]&63)
				cycle++
			case ir.OpShr:
				regs[v] = regs[ins.a0] >> uint64(regs[ins.a1]&63)
				cycle++

			case ir.OpCmp:
				if ins.pred.Eval(regs[ins.a0], regs[ins.a1]) {
					regs[v] = 1
				} else {
					regs[v] = 0
				}
				cycle++
			case ir.OpSelect:
				if regs[ins.a0] != 0 {
					regs[v] = regs[ins.a1]
				} else {
					regs[v] = regs[ins.imm]
				}
				cycle++

			case ir.OpLoad:
				addr := regs[ins.a0]
				r := h.Access(cycle, ins.pc, addr, mem.KindLoad)
				cycle += r.Latency
				regs[v] = h.Arena.Read(addr, ins.size)
				ctr.Loads++
				if res.PEBS != nil && r.LLCMiss {
					// Retired LLC-miss load: attribute the PC and the
					// *exposed* stall — the full memory latency for a
					// blocking miss, only the residual wait when the fill
					// was already in flight (the PEBS latency field).
					res.PEBS.ObserveMiss(ins.pc, r.Latency)
				}

			case ir.OpStore:
				addr := regs[ins.a0]
				r := h.Access(cycle, ins.pc, addr, mem.KindStore)
				cycle += r.Latency
				h.Arena.Write(addr, regs[ins.a1], ins.size)
				ctr.Stores++

			case ir.OpPrefetch:
				addr := regs[ins.a0]
				if addr >= 0 && addr < h.Arena.Size() {
					r := h.Access(cycle, ins.pc, addr, mem.KindSWPrefetch)
					cycle += r.Latency
				} else {
					// Out-of-bounds prefetch: real hardware drops it
					// without faulting; it still costs the issue slot.
					cycle++
				}
				ctr.SWPrefetches++

			case ir.OpBr:
				ctr.Branches++
				cycle++
				if regs[ins.a0] != 0 {
					nextBlock = cur.Succs[0]
					ctr.TakenBranches++
					ring.Push(ins.pc, firstPC[nextBlock], cycle)
				} else {
					nextBlock = cur.Succs[1]
				}

			case ir.OpJmp:
				ctr.Branches++
				ctr.TakenBranches++
				cycle++
				nextBlock = cur.Succs[0]
				ring.Push(ins.pc, firstPC[nextBlock], cycle)

			case ir.OpRet:
				cycle++
				ctr.Instructions = icount + 1
				ctr.Cycles = cycle
				ctr.Mem = h.Stats
				s.icount, s.cycle, s.nextSample = icount+1, cycle, nextSample
				s.prev, s.cur = cur.ID, cur.ID
				s.phiVals = phiVals
				s.done = true
				return true, nil

			default:
				return s.fail(icount, cycle, nextSample, prev, cur.ID,
					fmt.Errorf("cpu: %s: unexecutable op %s at pc %d",
						f.Name, ins.op, ins.pc))
			}

			icount++
			if icount > maxInstr {
				return s.fail(icount, cycle, nextSample, prev, cur.ID,
					fmt.Errorf("%w: %s after %d instructions",
						ErrInstructionLimit, f.Name, maxInstr))
			}
			if sampling && cycle >= nextSample {
				res.LBRSamples = append(res.LBRSamples, lbr.Sample{
					Cycle:   cycle,
					Entries: ring.Snapshot(),
				})
				// Re-arm on the fixed period grid, like the timer-driven
				// perf record this models: a long-latency miss that
				// overshoots the boundary must not push every later
				// sample, or miss-heavy phases get under-sampled.
				for nextSample <= cycle {
					nextSample += period
				}
			}
		}

		if nextBlock == ir.NoBlock {
			return s.fail(icount, cycle, nextSample, prev, cur.ID,
				fmt.Errorf("cpu: %s: block b%d fell through", f.Name, cur.ID))
		}
		prev = cur.ID
		cur = f.Blocks[nextBlock]
	}
}
