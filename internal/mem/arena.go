package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Arena is the simulated program memory: a flat little-endian
// byte-addressable store. It carries the *values*; timing is the
// Hierarchy's job. Accessors sign-extend sub-8-byte reads so that int32
// graph weights and int8 flags behave like their C counterparts.
type Arena struct {
	data []byte
}

// arenaPool is a small free list of recycled arenas. The pipeline
// allocates one multi-megabyte arena per simulated run and the runner
// fans runs out over a worker pool, so without reuse every run pays the
// page faults of touching a fresh allocation. Arenas are pooled by
// capacity, not by size: a request takes the smallest recycled arena
// that is large enough, and new arenas get their capacity rounded up to
// a power of two, so workloads of nearby sizes share arenas instead of
// each keeping its own. Recycled arenas are zeroed up to the requested
// size before they are handed out again — workloads' InitMem assumes
// zeroed memory.
var arenaPool struct {
	sync.Mutex
	free []*Arena // oldest first
}

// arenaPoolCap bounds how many arenas the pool retains; beyond it, the
// oldest recycled arena is dropped for the GC.
const arenaPoolCap = 4

// arenaClass rounds an arena size up to its capacity class, the next
// power of two.
func arenaClass(size int64) int64 {
	c := int64(1)
	for c < size {
		c <<= 1
	}
	return c
}

// NewArena returns an arena of the given size in bytes, zeroed, reusing
// the smallest recycled arena whose capacity holds it. When none does,
// the smallest recycled arena is dropped as well: it is too small for
// the current runs, and the new arena takes its place, so the pool's
// memory follows the largest size in use instead of adding up every
// size seen.
func NewArena(size int64) *Arena {
	arenaPool.Lock()
	fit, smallest := -1, -1
	for i, a := range arenaPool.free {
		c := cap(a.data)
		// Ties go to the most recently recycled arena (the later one).
		if int64(c) >= size && (fit < 0 || c <= cap(arenaPool.free[fit].data)) {
			fit = i
		}
		if smallest < 0 || c < cap(arenaPool.free[smallest].data) {
			smallest = i
		}
	}
	if fit < 0 {
		if smallest >= 0 {
			arenaPool.free = slices.Delete(arenaPool.free, smallest, smallest+1)
		}
		arenaPool.Unlock()
		return &Arena{data: make([]byte, size, arenaClass(size))}
	}
	a := arenaPool.free[fit]
	arenaPool.free = slices.Delete(arenaPool.free, fit, fit+1)
	arenaPool.Unlock()
	a.data = a.data[:size]
	clear(a.data)
	return a
}

// Recycle returns the arena to the pool for reuse by a later NewArena of
// at most its capacity. The caller must not touch the arena afterwards.
func (a *Arena) Recycle() {
	if a == nil || cap(a.data) == 0 {
		return
	}
	arenaPool.Lock()
	if len(arenaPool.free) == arenaPoolCap {
		arenaPool.free = slices.Delete(arenaPool.free, 0, 1)
	}
	arenaPool.free = append(arenaPool.free, a)
	arenaPool.Unlock()
}

// PoolLen reports how many recycled arenas the pool holds that could
// serve an arena of the given size. It exists so tests can assert that
// every run path — including failed ones — returns its arena to the pool.
func PoolLen(size int64) int {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	n := 0
	for _, a := range arenaPool.free {
		if int64(cap(a.data)) >= size {
			n++
		}
	}
	return n
}

// Size returns the arena size in bytes.
func (a *Arena) Size() int64 { return int64(len(a.data)) }

// check panics unless [addr, addr+size) lies inside the arena. It
// compares against len-size rather than computing addr+size, which
// overflows for addresses near MaxInt64.
func (a *Arena) check(addr int64, size int64) {
	if addr < 0 || addr > int64(len(a.data))-size {
		panic(fmt.Sprintf("mem: %d-byte access at %d outside arena of %d bytes", size, addr, len(a.data)))
	}
}

// Read returns the sign-extended value of size bytes at addr.
func (a *Arena) Read(addr int64, size uint8) int64 {
	a.check(addr, int64(size))
	b := a.data[addr:]
	switch size {
	case 1:
		return int64(int8(b[0]))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b)))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b)))
	case 8:
		return int64(binary.LittleEndian.Uint64(b))
	default:
		panic(fmt.Sprintf("mem: unsupported read size %d", size))
	}
}

// Write stores the low size bytes of val at addr.
func (a *Arena) Write(addr int64, val int64, size uint8) {
	a.check(addr, int64(size))
	b := a.data[addr:]
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(b, uint64(val))
	default:
		panic(fmt.Sprintf("mem: unsupported write size %d", size))
	}
}
