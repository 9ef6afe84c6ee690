package ir

import (
	"fmt"
	"strings"
)

// String renders the function in a readable assembly-like form, used by
// tests and the CLI's -dump flag. It is also the program part of
// core.RunCache's run key, so it must print every field the simulator
// reads (core's TestRunKeyCoversWhatTheSimulatorReads holds it to that).
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s (b%d):", b.Name, b.ID)
		if len(b.Succs) > 0 {
			fmt.Fprintf(&sb, " -> %v", b.Succs)
		}
		sb.WriteByte('\n')
		for _, v := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", f.InstrString(v))
		}
	}
	return sb.String()
}

// InstrString renders one instruction, with every field the simulator
// reads (see String). A prefetch prints no size: the simulator fetches
// the whole line whatever its size.
func (f *Func) InstrString(v Value) string {
	ins := &f.Instrs[v]
	name := ""
	if ins.Name != "" {
		name = " ; " + ins.Name
	}
	pc := fmt.Sprintf("[pc=%d]", ins.PC)
	switch ins.Op {
	case OpConst:
		return fmt.Sprintf("%s v%d = const %d%s", pc, v, ins.Imm, name)
	case OpCmp:
		return fmt.Sprintf("%s v%d = cmp.%s v%d, v%d%s", pc, v, ins.Pred, ins.Args[0], ins.Args[1], name)
	case OpLoad:
		return fmt.Sprintf("%s v%d = load.%d [v%d]%s", pc, v, ins.Size, ins.Args[0], name)
	case OpStore:
		return fmt.Sprintf("%s store.%d [v%d] = v%d%s", pc, ins.Size, ins.Args[0], ins.Args[1], name)
	case OpPrefetch:
		return fmt.Sprintf("%s prefetch [v%d]%s", pc, ins.Args[0], name)
	case OpPhi:
		parts := make([]string, len(ins.Args))
		for i := range ins.Args {
			parts[i] = fmt.Sprintf("[v%d, b%d]", ins.Args[i], ins.PhiPreds[i])
		}
		return fmt.Sprintf("%s v%d = phi %s%s", pc, v, strings.Join(parts, " "), name)
	case OpBr:
		return fmt.Sprintf("%s br v%d%s", pc, ins.Args[0], name)
	case OpJmp:
		return fmt.Sprintf("%s jmp%s", pc, name)
	case OpRet:
		return fmt.Sprintf("%s ret%s", pc, name)
	default:
		args := make([]string, len(ins.Args))
		for i, a := range ins.Args {
			args[i] = fmt.Sprintf("v%d", a)
		}
		return fmt.Sprintf("%s v%d = %s %s%s", pc, v, ins.Op, strings.Join(args, ", "), name)
	}
}
