package main

import (
	"crypto/sha256"
	"sync"
	"time"
)

// reference times a fixed computation between the timed phases of a run.
// The host this benchmark runs on is shared, and its speed drifts by a
// quarter or more over minutes, which swamps a code change in raw
// wall-clock times. Host times are therefore reported scaled to a
// nominal reference speed:
//
//	reported = measured × refNominalMs / median(reference chunk ms)
//
// and rates divided by the same factor. The reference is benchmark code,
// so no change to the program moves it: a change that makes the program
// faster or slower moves the scaled times exactly as it moves the raw
// ones. Over ten seeds of serve-hit the scaling cut the p50 spread from
// 0.25 to 0.17; README.md has the figures. Raw values are printed beside
// the scaled ones.
type reference struct {
	mu   sync.Mutex
	buf  []byte
	ms   []float64
	sink uint64
}

func newReference() *reference { return &reference{buf: make([]byte, 4096)} }

// chunk is one unit of reference work, about refNominalMs on the
// nominal host: integer arithmetic and SHA-256 hashing.
func (r *reference) chunk() {
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < 2_000; i++ {
		s := sha256.Sum256(r.buf)
		r.buf[i&4095] ^= s[0]
	}
	r.sink += x + uint64(r.buf[0])
}

// refNominalMs is the median chunk time on the nominal host (2-core
// x86-64), where scaled times equal raw ones.
const refNominalMs = 16.0

// refChunks is how many chunks one sample times.
const refChunks = 2

// sample times refChunks chunks.
func (r *reference) sample() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < refChunks; i++ {
		t0 := time.Now()
		r.chunk()
		r.ms = append(r.ms, msSince(t0))
	}
}

// medianMs is the median chunk time.
func (r *reference) medianMs() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.ms)
}

// scale maps this run's host times onto the nominal host: times are
// multiplied by it and rates divided. It is below 1 when the reference
// ran slower than nominal.
func (r *reference) scale() float64 {
	if m := r.medianMs(); m > 0 {
		return refNominalMs / m
	}
	return 1
}
