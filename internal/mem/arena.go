package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Arena is the simulated program memory: a flat little-endian
// byte-addressable store. It carries the *values*; timing is the
// Hierarchy's job. Accessors sign-extend sub-8-byte reads so that int32
// graph weights and int8 flags behave like their C counterparts.
type Arena struct {
	data []byte
}

// arenaPool keeps a small free list of recycled arenas per size. The
// pipeline allocates one multi-megabyte arena per simulated run and the
// runner fans runs out over a worker pool, so without reuse every run
// pays the page faults of touching a fresh allocation. Recycled arenas
// are zeroed before they are handed out again — workloads' InitMem
// assumes zeroed memory.
var arenaPool struct {
	sync.Mutex
	bySize map[int64][]*Arena
}

// arenaPoolPerSize bounds how many arenas of one size the pool retains;
// beyond it, recycled arenas are dropped for the GC.
const arenaPoolPerSize = 4

// NewArena returns an arena of the given size in bytes, zeroed, reusing
// a recycled arena of the same size when one is available.
func NewArena(size int64) *Arena {
	arenaPool.Lock()
	if list := arenaPool.bySize[size]; len(list) > 0 {
		a := list[len(list)-1]
		arenaPool.bySize[size] = list[:len(list)-1]
		arenaPool.Unlock()
		clear(a.data)
		return a
	}
	arenaPool.Unlock()
	return &Arena{data: make([]byte, size)}
}

// Recycle returns the arena to the pool for reuse by a later NewArena of
// the same size. The caller must not touch the arena afterwards.
func (a *Arena) Recycle() {
	if a == nil || len(a.data) == 0 {
		return
	}
	arenaPool.Lock()
	if arenaPool.bySize == nil {
		arenaPool.bySize = make(map[int64][]*Arena)
	}
	size := int64(len(a.data))
	if len(arenaPool.bySize[size]) < arenaPoolPerSize {
		arenaPool.bySize[size] = append(arenaPool.bySize[size], a)
	}
	arenaPool.Unlock()
}

// PoolLen reports how many recycled arenas of the given size the pool
// currently holds. It exists so tests can assert that every run path —
// including failed ones — returns its arena to the pool.
func PoolLen(size int64) int {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	return len(arenaPool.bySize[size])
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
