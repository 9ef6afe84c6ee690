package analysis

import "aptget/internal/lbr"

// MeasureLoop exposes measureLoop, with Analyze's option defaults
// applied, to the external tests that need a registry workload (and so
// import core, which imports this package).
func MeasureLoop(latch, breakers []uint64, samples []lbr.Sample, opt Options) LoopTiming {
	opt.fill()
	return measureLoop(latch, breakers, samples, opt)
}

// LatchPCs exposes latchPCs to the external tests.
var LatchPCs = latchPCs
