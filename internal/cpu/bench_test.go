package cpu_test

import (
	"testing"

	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/mem"
	"aptget/internal/workloads"
)

// BenchmarkHotInterpreter measures IR interpretation speed on an
// ALU-heavy loop. Tracked by the CI bench gate.
func BenchmarkHotInterpreter(b *testing.B) {
	bld := ir.NewBuilder("bench")
	out := bld.Alloc("out", 1, 8)
	zero := bld.Const(0)
	n := int64(100_000)
	bld.Loop("i", zero, bld.Const(n), 1, func(i ir.Value) {
		v := bld.Mul(bld.Add(i, bld.Const(3)), bld.Const(5))
		bld.StoreElem(out, zero, bld.Xor(v, i))
	})
	p := bld.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cpu.Run(p, mem.ConfigScaled(), cpu.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res.Hier.Release()
	}
	b.ReportMetric(float64(n*6), "instrs/op")
}

// BenchmarkHotSim is one simulated run end to end: interpreter and
// memory hierarchy together on G500's baseline build, the shape each of
// an evaluation's four runs per app has. The workload is built outside
// the timer. Tracked by the CI bench gate.
func BenchmarkHotSim(b *testing.B) {
	e, _ := workloads.ByKey("G500")
	w := e.New()
	p, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cpu.Run(p, mem.ConfigScaled(), cpu.Options{InitMem: w.InitMem})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counters.Instructions
		res.Hier.Release()
	}
	b.ReportMetric(float64(instrs), "instrs/op")
}
