package core

import (
	"errors"
	"testing"

	"aptget/internal/cpu"
	"aptget/internal/mem"
)

// TestFailedRunsRecycleArena locks the error-path arena recycling in
// execute: a run that dies mid-execution (instruction limit) or fails
// verification must still return its arena to the pool. Before the fix
// both paths dropped the hierarchy on the floor, so a study with a few
// failing variants bled the pool dry and every subsequent run paid a
// fresh multi-megabyte allocation.
//
// The pool serves a request from any recycled arena large enough, so the
// test uses an arena larger than every registry workload's (the largest,
// HJ2, is under 16 MiB): no other test leaves an arena that could serve
// it, and PoolLen(size) is then a precise leak counter. The pool keeps
// the most recently recycled arenas, so a correct release always lands.
func TestFailedRunsRecycleArena(t *testing.T) {
	newBig := func() *microWorkload {
		w := newMicro(9, 7)
		w.table = 17 << 17 // 17 MiB of table
		return w
	}
	p, err := newBig().Build()
	if err != nil {
		t.Fatal(err)
	}
	size := p.MemSize
	if n := mem.PoolLen(size); n != 0 {
		t.Fatalf("pool already holds %d arenas of %d bytes or more; pick a larger size", n, size)
	}

	// Path 1: verification failure after a clean run.
	if _, err := RunBaseline(&brokenWorkload{newBig()}, DefaultConfig()); err == nil {
		t.Fatal("verification should fail for the broken workload")
	}
	if n := mem.PoolLen(size); n != 1 {
		t.Fatalf("verify-failure path leaked the arena: pool holds %d, want 1", n)
	}

	// Path 2: execution error (instruction limit). NewArena pops the
	// recycled arena, so a correct release brings the count back to 1.
	cfg := DefaultConfig()
	cfg.MaxInstructions = 50
	_, err = RunBaseline(newBig(), cfg)
	if !errors.Is(err, cpu.ErrInstructionLimit) {
		t.Fatalf("want ErrInstructionLimit, got %v", err)
	}
	if n := mem.PoolLen(size); n != 1 {
		t.Fatalf("cpu-error path leaked the arena: pool holds %d, want 1", n)
	}
}
