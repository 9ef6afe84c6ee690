package mem

import "testing"

// TestStrideDegreeOneCoversNextAccess: a degree-1 prefetcher must fetch
// the *next* element of the stream (addr+stride). Pre-fix it fired at
// stride*(k+1), so degree 1 fetched addr+2*stride and the very next
// access missed forever — overstating the benefit of software
// prefetching against the hardware baseline.
func TestStrideDegreeOneCoversNextAccess(t *testing.T) {
	p := newStridePrefetcher(1)
	const pc, stride = 0x40, int64(64)
	var addr int64
	var fired []int64
	for i := 0; i < 8; i++ {
		fired = fire(p, pc, addr)
		addr += stride
	}
	if len(fired) != 1 {
		t.Fatalf("degree-1 prefetcher fired %d targets, want 1", len(fired))
	}
	// After observing addr, the next demand access is addr+stride.
	last := addr - stride
	if fired[0] != last+stride {
		t.Fatalf("degree-1 target = %d, want next access %d (addr %d + stride %d)",
			fired[0], last+stride, last, stride)
	}
}

// TestStrideDegreeNCoversWindow: degree d covers exactly the next d
// accesses, addr+stride .. addr+stride*d.
func TestStrideDegreeNCoversWindow(t *testing.T) {
	p := newStridePrefetcher(4)
	const pc, stride = 0x80, int64(8)
	var addr int64
	var fired []int64
	for i := 0; i < 8; i++ {
		fired = fire(p, pc, addr)
		addr += stride
	}
	last := addr - stride
	if len(fired) != 4 {
		t.Fatalf("degree-4 prefetcher fired %d targets, want 4", len(fired))
	}
	for k, target := range fired {
		want := last + stride*int64(k+1)
		if target != want {
			t.Fatalf("target %d = %d, want %d", k, target, want)
		}
	}
}

// fire observes one load and returns the addresses trainStride
// prefetches for it (nil when the predictor does not fire).
func fire(p *stridePrefetcher, pc uint64, addr int64) []int64 {
	stride, n := p.observe(pc, addr)
	var targets []int64
	for k := 1; k <= n; k++ {
		if t := addr + stride*int64(k); t >= 0 {
			targets = append(targets, t)
		}
	}
	return targets
}
