package workloads

// graphPins holds, per graph workload of Registry, the scalars its Build
// reads of the generated dataset and the native run (graphShape), so
// Entry.Program builds the program without generating the graph.
// TestProgramWithoutData compares every Program() with New().Build() and,
// when a generator or constructor change moves a pin, fails and prints
// the literal to paste here.
var graphPins = map[string]graphShape{
	"BFS":  {N: 96000, M: 556800, Levels: []int64{10}},
	"DFS":  {N: 80000, M: 200037},
	"PR":   {N: 80000, M: 368000},
	"BC":   {N: 72000, M: 266400, Levels: []int64{14}, Sources: []int64{59657}},
	"SSSP": {N: 32000, M: 79866, Rounds: 16},
	"G500": {N: 65536, M: 655360, Levels: []int64{6}},
}
