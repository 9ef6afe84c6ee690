package mem

// stridePrefetcher is an IP-indexed stride predictor in the style of the
// L1/L2 streamers on commodity Intel cores. It detects constant-stride
// access streams per load PC and, once confident, prefetches a small
// number of lines ahead. Indirect accesses (A[B[i]]) produce effectively
// random strides and never train it — which is exactly why the paper's
// workloads need software prefetching.
//
// The table is a fixed open-addressed hash of strideTableSlots entries
// holding at most strideTableMaxEntries PCs, so training never
// allocates.
type stridePrefetcher struct {
	degree int
	n      int // occupied slots
	slots  [strideTableSlots]strideEntry
}

type strideEntry struct {
	pc         uint64
	lastAddr   int64
	stride     int64
	confidence int32
	used       bool
}

const (
	strideConfidenceMax   = 4
	strideConfidenceFire  = 2
	strideTableMaxEntries = 256
	strideTableSlots      = 2 * strideTableMaxEntries // power of two
)

func newStridePrefetcher(degree int) *stridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &stridePrefetcher{degree: degree}
}

// slot returns pc's entry, or the empty slot where it belongs.
func (p *stridePrefetcher) slot(pc uint64) *strideEntry {
	i := (pc * 0x9E3779B97F4A7C15) >> 55 // top 9 bits: strideTableSlots
	for {
		e := &p.slots[i]
		if !e.used || e.pc == pc {
			return e
		}
		i = (i + 1) & (strideTableSlots - 1)
	}
}

// observe records a demand load. Once the stream's stride is confirmed
// it returns (stride, degree): prefetch addr+stride*k for k in
// [1, degree] — the next degree accesses of the stream. Firing at
// stride*(k+1) would leave the very next access (addr+stride)
// permanently uncovered. Otherwise n is 0.
func (p *stridePrefetcher) observe(pc uint64, addr int64) (stride int64, n int) {
	e := p.slot(pc)
	if !e.used {
		if p.n >= strideTableMaxEntries {
			// Cheap, deterministic eviction: clear the table. Real
			// hardware uses set-indexed tables; for our workloads (few
			// hot loads) this path is almost never taken.
			p.slots = [strideTableSlots]strideEntry{}
			p.n = 0
			e = p.slot(pc)
		}
		*e = strideEntry{pc: pc, lastAddr: addr, used: true}
		p.n++
		return 0, 0
	}
	stride = addr - e.lastAddr
	e.lastAddr = addr
	if stride == 0 {
		return 0, 0
	}
	if stride != e.stride {
		e.stride = stride
		e.confidence = 0
		return 0, 0
	}
	if e.confidence < strideConfidenceMax {
		e.confidence++
	}
	if e.confidence < strideConfidenceFire {
		return 0, 0
	}
	return stride, p.degree
}
