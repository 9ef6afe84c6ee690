package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
)

// Fingerprint is the content address of a profile: a stable hash over
// its canonical bytes. Two profiles fingerprint equal iff they encode to
// the same bytes, so the plan cache can key on it directly.
type Fingerprint string

// ShapeHash is the stale-matching key: a stable hash over the profile's
// loop structure (and the app it belongs to), with every raw PC ignored.
// Profiles of two builds of the same program that kept the loop nest —
// the common case under binary drift — share a ShapeHash even though
// their Fingerprints differ.
type ShapeHash string

// fpBytes is how much of the SHA-256 digest the textual keys keep. 16
// bytes (128 bits) is far beyond collision reach for any cache size and
// keeps URLs readable.
const fpBytes = 16

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:fpBytes])
}

// FingerprintOf content-addresses a profile via its canonical encoding.
func FingerprintOf(p *Profile) Fingerprint {
	return FingerprintBytes(EncodeProfile(p))
}

// FingerprintBytes content-addresses an already-encoded profile frame.
// The caller must pass bytes produced by EncodeProfile (canonical);
// hashing a hand-built non-canonical frame would address the same
// logical profile twice.
func FingerprintBytes(canonical []byte) Fingerprint {
	return Fingerprint(digest(canonical))
}

// Body reads an upload whole into a buffer it keeps between calls and
// hashes the bytes as they arrive, so the upload's fingerprint costs no
// second pass over it. A server keeps one Body per in-flight request.
// The zero Body is ready to use.
type Body struct {
	// Bytes is what the last Fill read. It is overwritten by the next.
	Bytes  []byte
	sum    hash.Hash
	digest [sha256.Size]byte
}

// bodies is the process-wide pool of upload buffers. The shards and the
// router share it, so a process that runs both keeps one set of buffers.
var bodies = sync.Pool{New: func() any { return new(Body) }}

// maxPooledBody is the largest buffer Release returns to the pool. A
// profile window is 100–250 KB; a buffer a rare larger upload (accepted
// or not) grew past this is left to the collector rather than kept
// alive by the pool.
const maxPooledBody = 1 << 20

// GetBody takes a Body from the pool. Hand it back with Release once
// nothing can still read its Bytes.
func GetBody() *Body { return bodies.Get().(*Body) }

// Release returns b to the pool GetBody draws from, unless its buffer
// grew past 1 MiB. Neither b nor its Bytes may be used after.
func (b *Body) Release() {
	if cap(b.Bytes) <= maxPooledBody {
		bodies.Put(b)
	}
}

// Body growth: a declared length sizes the buffer up front, but never
// by more than maxPresize ahead of the bytes that actually arrive, so a
// sender cannot make Fill allocate by declaring a length it does not
// send. Past that the buffer grows by at least minGrow at a time.
const (
	maxPresize = 1 << 20
	minGrow    = 16 << 10
)

// Fill reads r to EOF into b.Bytes and returns FingerprintBytes of what
// it read. size is the length the sender declared, or ≤ 0 when unknown.
// The fingerprint is the content address only if the bytes are a
// canonical frame, which Fill does not check: decode them to find out.
// On a read error b.Bytes holds what arrived before it.
func (b *Body) Fill(r io.Reader, size int64) (Fingerprint, error) {
	if b.sum == nil {
		b.sum = sha256.New()
	}
	b.sum.Reset()
	buf := b.Bytes[:0]
	if size > 0 {
		// One byte past the declared length leaves room for a read that
		// returns only EOF, so an exact-size body is not regrown.
		buf = slices.Grow(buf, int(min(size, maxPresize))+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, minGrow)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		b.sum.Write(buf[len(buf) : len(buf)+n])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Bytes = buf
			return "", fmt.Errorf("wire: reading frame: %w", err)
		}
	}
	b.Bytes = buf
	var fp [2 * fpBytes]byte
	hex.Encode(fp[:], b.sum.Sum(b.digest[:0])[:fpBytes])
	return Fingerprint(fp[:]), nil
}

// ShapeHashOf hashes the app name and the PC-free loop shapes.
func ShapeHashOf(app string, loops []LoopShape) ShapeHash {
	w := newWriter(KindProfile) // reuse the frame writer for canonical bytes
	w.str(app)
	w.uint(uint64(len(loops)))
	for _, l := range loops {
		w.int(int64(l.Depth))
		w.int(int64(l.Parent))
		w.int(int64(l.Latches))
		w.int(int64(l.Blocks))
		w.bool(l.HasInduction)
	}
	return ShapeHash(digest(w.buf))
}

// ShapeHash returns the profile's stale-matching key.
func (p *Profile) ShapeHash() ShapeHash { return ShapeHashOf(p.App, p.Loops) }

// Validate applies the structural checks ingestion needs beyond what the
// decoder enforces: a workload name, and loop parent indices that stay
// inside the slice (the shape hash and stale matcher walk them).
func (p *Profile) Validate() error {
	if p.App == "" {
		return fmt.Errorf("wire: profile has no app name")
	}
	for i, l := range p.Loops {
		if l.Parent < -1 || int(l.Parent) >= len(p.Loops) || int(l.Parent) == i {
			return fmt.Errorf("wire: loop %d has bad parent index %d", i, l.Parent)
		}
		if l.Depth < 1 || l.Latches < 0 || l.Blocks < 1 {
			return fmt.Errorf("wire: loop %d has bad shape %+v", i, l)
		}
	}
	return nil
}
