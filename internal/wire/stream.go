// Incremental frame decoding. DecodeProfile and DecodePlanSet used to
// prove canonicality by re-encoding the decoded value and comparing
// bytes — correct, but it doubles the work. This file replaces that
// with a single pass that enforces the same acceptance set directly:
//
//   - every uvarint/zigzag varint is minimally encoded (n bytes are
//     minimal iff n == 1 or the value needs the n-th byte),
//   - bool bytes are strictly 0 or 1,
//   - int32-backed fields fit in int32 (the old decoder truncated and
//     then failed the re-encode comparison),
//   - loads and samples arrive in canonical order, checked pairwise with
//     the exact predicates Canonicalize sorts with (a slice is the
//     stable-sort fixed point iff no adjacent pair is inverted),
//   - the frame is exactly its fields: no trailing bytes.
//
// Together these imply encode(decode(b)) == b for every accepted b —
// the property the wire fuzz targets assert — without materializing a
// second copy. The same pass runs over a frame in memory (the service
// reads an upload into a buffer, hashing it as it arrives, and decodes
// only when the hash finds no cached plans: (*Decoder).DecodeProfile)
// or over an io.Reader, hashing every byte it consumes
// (DecodeProfileFrom).
package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"

	"aptget/internal/lbr"
)

// streamChunk is the refill granularity for io.Reader sources and the
// allocation cap for length-prefixed data: a slice is never grown by
// more than this many bytes ahead of what the stream has delivered, so
// an adversarial length prefix cannot allocate beyond the actual input.
const streamChunk = 64 << 10

// stream is the incremental frame reader. With src == nil, buf holds
// the entire frame (the []byte decoders); otherwise buf is a sliding
// window refilled from src, and every byte that enters the window is
// fed to sum, giving the content address of the frame for free.
type stream struct {
	buf []byte // buffered bytes; unread portion is buf[pos:]
	pos int
	src io.Reader // nil when buf is the whole input
	sum hash.Hash // optional incremental SHA-256 over all buffered bytes
	off int64     // total bytes consumed, for error offsets
	err error

	scratch [8]byte // f64 staging for the src path
}

func (s *stream) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// remaining is how many unread bytes are buffered.
func (s *stream) remaining() int { return len(s.buf) - s.pos }

// refill buffers at least one more unread byte, returning false at end
// of input or on a read error. The []byte path never refills.
func (s *stream) refill() bool {
	if s.err != nil || s.src == nil {
		return false
	}
	if s.pos > 0 {
		s.buf = s.buf[:copy(s.buf, s.buf[s.pos:])]
		s.pos = 0
	}
	if cap(s.buf) < streamChunk {
		old := s.buf
		s.buf = make([]byte, len(old), streamChunk)
		copy(s.buf, old)
	}
	for {
		n, err := s.src.Read(s.buf[len(s.buf):cap(s.buf)])
		if n > 0 {
			s.sum.Write(s.buf[len(s.buf) : len(s.buf)+n])
			s.buf = s.buf[:len(s.buf)+n]
			return true
		}
		if err == io.EOF {
			return false
		}
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("wire: reading frame: %w", err)
			}
			return false
		}
	}
}

func (s *stream) byte() byte {
	if s.err != nil {
		return 0
	}
	if s.pos >= len(s.buf) && !s.refill() {
		s.fail("wire: truncated frame at offset %d", s.off)
		return 0
	}
	b := s.buf[s.pos]
	s.pos++
	s.off++
	return b
}

// full fills dst from the stream, refilling as needed.
func (s *stream) full(dst []byte) {
	for len(dst) > 0 {
		if s.err != nil {
			return
		}
		if s.pos >= len(s.buf) && !s.refill() {
			s.fail("wire: truncated frame at offset %d", s.off)
			return
		}
		n := copy(dst, s.buf[s.pos:])
		s.pos += n
		s.off += int64(n)
		dst = dst[n:]
	}
}

// uint reads a minimally-encoded uvarint: a multi-byte encoding whose
// final byte is zero carries padding the canonical writer never emits.
func (s *stream) uint() uint64 {
	if s.err != nil {
		return 0
	}
	// Fast path: the longest encoding (10 bytes) is buffered, so decode
	// straight from the window in one loop with one exit and no refill
	// checks. It accepts exactly what the byte-wise path below does.
	if b := s.buf[s.pos:]; len(b) >= 10 {
		var v uint64
		i := 0
		for ; i < 9 && b[i] >= 0x80; i++ {
			v |= uint64(b[i]&0x7f) << (7 * i)
		}
		// The loop stops at a byte below 0x80 or at the tenth byte,
		// which may carry only the 64th bit.
		last := b[i]
		switch {
		case i == 9 && last > 1:
			s.fail("wire: uvarint overflows 64 bits at offset %d", s.off)
			return 0
		case i > 0 && last == 0:
			s.fail("wire: frame is not canonical: padded varint at offset %d", s.off)
			return 0
		}
		s.pos += i + 1
		s.off += int64(i + 1)
		return v | uint64(last)<<(7*i)
	}
	start := s.off
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b := s.byte()
		if s.err != nil {
			return 0
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				s.fail("wire: uvarint overflows 64 bits at offset %d", start)
				return 0
			}
			if i > 0 && b == 0 {
				s.fail("wire: frame is not canonical: padded varint at offset %d", start)
				return 0
			}
			return v | uint64(b)<<shift
		}
		if i == 9 {
			break
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	s.fail("wire: uvarint overflows 64 bits at offset %d", start)
	return 0
}

// int reads a zigzag varint (minimality checked on the raw uvarint).
func (s *stream) int() int64 {
	ux := s.uint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// int32v reads a zigzag varint that must fit in int32 — the old decoder
// truncated and then failed the re-encode comparison; same accept set.
func (s *stream) int32v() int32 {
	start := s.off
	v := s.int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		s.fail("wire: frame is not canonical: value %d overflows int32 at offset %d", v, start)
		return 0
	}
	return int32(v)
}

func (s *stream) f64() float64 {
	if s.err != nil {
		return 0
	}
	// Fast path: 8 bytes already buffered.
	if s.remaining() >= 8 {
		b := s.buf[s.pos:]
		bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		s.pos += 8
		s.off += 8
		return math.Float64frombits(bits)
	}
	s.full(s.scratch[:])
	if s.err != nil {
		return 0
	}
	b := s.scratch
	bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(bits)
}

func (s *stream) bool() bool {
	b := s.byte()
	if s.err != nil {
		return false
	}
	if b > 1 {
		s.fail("wire: bad bool byte %d at offset %d", b, s.off-1)
		return false
	}
	return b == 1
}

// count reads a length prefix. When the whole frame is in memory it is
// validated against the remaining bytes (each element needs at least
// elemMin bytes); for streams the cap is enforced by chunked allocation
// at the use sites instead.
func (s *stream) count(elemMin int) int {
	start := s.off
	v := s.uint()
	if s.err != nil {
		return 0
	}
	if s.src == nil && v > uint64(s.remaining())/uint64(elemMin) {
		s.fail("wire: length %d exceeds remaining %d bytes at offset %d",
			v, s.remaining(), start)
		return 0
	}
	if v > math.MaxInt64/2 {
		s.fail("wire: absurd length %d at offset %d", v, start)
		return 0
	}
	return int(v)
}

// sliceCap bounds an up-front allocation for n elements of elemSize
// bytes: exact when the frame is in memory (count already validated n),
// one chunk's worth otherwise — the slice then grows only as the stream
// actually delivers elements.
func (s *stream) sliceCap(n, elemSize int) int {
	if s.src == nil {
		return n
	}
	if max := streamChunk / elemSize; n > max {
		return max
	}
	return n
}

func (s *stream) str() string {
	n := s.count(1)
	if s.err != nil || n == 0 {
		return ""
	}
	// Fast path: the bytes are buffered (always true for src == nil).
	if s.remaining() >= n {
		v := string(s.buf[s.pos : s.pos+n])
		s.pos += n
		s.off += int64(n)
		return v
	}
	out := make([]byte, 0, s.sliceCap(n, 1))
	for len(out) < n {
		chunk := n - len(out)
		if chunk > streamChunk {
			chunk = streamChunk
		}
		start := len(out)
		out = append(out, make([]byte, chunk)...)
		s.full(out[start:])
		if s.err != nil {
			return ""
		}
	}
	return string(out)
}

func (s *stream) f64s() []float64 {
	n := s.count(8)
	if s.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, s.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		out = append(out, s.f64())
		if s.err != nil {
			return nil
		}
	}
	return out
}

// header consumes and validates magic, version, and kind.
func (s *stream) header(kind byte) {
	var m [4]byte
	s.full(m[:])
	if s.err != nil {
		return
	}
	if m != magic {
		s.fail("wire: bad magic")
		return
	}
	if v := s.uint(); s.err == nil && v != Version {
		s.fail("wire: version %d, this decoder speaks %d", v, Version)
		return
	}
	if got := s.byte(); s.err == nil && got != kind {
		s.fail("wire: frame kind %d, want %d", got, kind)
	}
}

// finish rejects trailing bytes — a frame is exactly its fields.
func (s *stream) finish() error {
	if s.err != nil {
		return s.err
	}
	if s.remaining() > 0 || s.refill() {
		return fmt.Errorf("wire: trailing bytes after frame at offset %d", s.off)
	}
	return s.err
}

// Decoder decodes profile frames into buffers it keeps between calls:
// the load, sample, LBR-entry and loop backings. A server decoding one
// upload per request reuses one Decoder per in-flight request instead of
// allocating the profile afresh. The returned *Profile aliases those
// buffers (never the frame): it is valid until the decoder's next
// decode, and a caller that keeps it longer must copy it. The zero
// Decoder is ready to use.
type Decoder struct {
	p       Profile
	loads   []Load
	samples []lbr.Sample
	entries []lbr.Entry
	loops   []LoopShape
	// entryHint is the most LBR entries one decode has held; the next
	// decode reserves that many in entries.
	entryHint int
}

// DecodeProfile is the package-level DecodeProfile decoding into d's
// buffers.
func (d *Decoder) DecodeProfile(data []byte) (*Profile, error) {
	s := stream{buf: data}
	p := d.decodeProfile(&s)
	if err := s.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeProfile is the shared incremental profile parser. Each slice
// starts from the decoder's backing and grows only as elements arrive,
// so an adversarial length prefix still allocates no more than the
// input delivers. Every sample's Entries is a full-capacity slice.
func (d *Decoder) decodeProfile(s *stream) *Profile {
	s.header(KindProfile)
	p := &d.p
	*p = Profile{App: s.str(), Cycles: s.uint(), Instructions: s.uint()}
	if n := s.count(3); s.err == nil && n > 0 {
		p.Loads = reserve(d.loads, s.sliceCap(n, 24))
		for i := 0; i < n && s.err == nil; i++ {
			l := Load{PC: s.uint(), Samples: s.uint(), StallCycles: s.uint(), Share: s.f64()}
			if i > 0 && lessLoad(&l, &p.Loads[i-1]) {
				s.fail("wire: frame is not canonical: loads out of order at index %d", i)
				break
			}
			p.Loads = append(p.Loads, l)
		}
		d.loads = p.Loads
	}
	if n := s.count(2); s.err == nil && n > 0 {
		p.Samples = reserve(d.samples, s.sliceCap(n, 40))
		entries := reserve(d.entries, d.entryHint)
		need := 0
		for i := 0; i < n && s.err == nil; i++ {
			var sm lbr.Sample
			sm.Cycle = s.uint()
			if m := s.count(3); s.err == nil && m > 0 {
				// A snapshot goes into the kept backing when it fits
				// there, else into its own slice; either way it
				// allocates nothing beyond what the stream delivers.
				shared := cap(entries)-len(entries) >= m
				es := entries[len(entries):]
				if !shared {
					es = make([]lbr.Entry, 0, s.sliceCap(m, 24))
				}
				for j := 0; j < m && s.err == nil; j++ {
					es = append(es, lbr.Entry{
						From: s.uint(), To: s.uint(), Cycle: s.uint(),
					})
				}
				sm.Entries = es[:len(es):len(es)]
				if shared {
					entries = entries[:len(entries)+len(es)]
				}
				need += len(es)
			}
			if s.err == nil && i > 0 && lessSample(&sm, &p.Samples[i-1]) {
				s.fail("wire: frame is not canonical: samples out of order at index %d", i)
				break
			}
			p.Samples = append(p.Samples, sm)
		}
		// The next decode reserves room for every entry this one held,
		// so a reused decoder stops allocating once it has seen its
		// largest profile, and a one-shot decoder never pays for it.
		d.samples, d.entries, d.entryHint = p.Samples, entries, max(d.entryHint, need)
	}
	if n := s.count(5); s.err == nil && n > 0 {
		p.Loops = reserve(d.loops, s.sliceCap(n, 16))
		for i := 0; i < n && s.err == nil; i++ {
			p.Loops = append(p.Loops, LoopShape{
				Depth:        s.int32v(),
				Parent:       s.int32v(),
				Latches:      s.int32v(),
				Blocks:       s.int32v(),
				HasInduction: s.bool(),
			})
		}
		d.loops = p.Loops
	}
	return p
}

// reserve returns buf emptied, with room for at least n elements.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// decodePlanSet is the shared incremental plan-set parser. Plan order is
// the analysis order — the encoder preserves it, so no order check.
func (s *stream) decodePlanSet() *PlanSet {
	s.header(KindPlanSet)
	ps := &PlanSet{}
	ps.App = s.str()
	if n := s.count(10); s.err == nil && n > 0 {
		ps.Plans = make([]Plan, 0, s.sliceCap(n, 200))
		for i := 0; i < n && s.err == nil; i++ {
			var p Plan
			p.LoadPC = s.uint()
			p.LoadName = s.str()
			p.Site = s.str()
			p.Distance = s.int()
			p.IC = s.f64()
			p.MC = s.f64()
			p.AvgTrip = s.f64()
			p.K = s.int()
			p.InnerDistance = s.int()
			p.OuterDistance = s.int()
			p.PeaksInner = s.f64s()
			p.PeaksOuter = s.f64s()
			p.LatencySamples = s.int()
			p.DroppedNonMonotonic = s.int()
			p.Fallback = s.str()
			p.Score = s.f64()
			p.MeanStall = s.f64()
			ps.Plans = append(ps.Plans, p)
		}
	}
	return ps
}

// DecodeProfile parses a profile frame from memory. Only canonical
// frames — the exact bytes EncodeProfile emits — are accepted: a padded
// varint or unsorted load list would otherwise give one logical profile
// two fingerprints and split the plan cache. Truncation, trailing
// bytes, and absurd lengths are errors, never panics — this is the
// service's network-facing parser.
func DecodeProfile(data []byte) (*Profile, error) {
	return new(Decoder).DecodeProfile(data)
}

// DecodeProfileFrom parses exactly one canonical profile frame from r,
// hashing and validating incrementally as bytes arrive: the decoder
// never buffers more than one window, and the returned Fingerprint is
// the content address of the consumed bytes (identical to
// FingerprintBytes over the same frame). r must end at the frame
// boundary; trailing bytes are an error. The profile is the caller's to
// keep.
func DecodeProfileFrom(r io.Reader) (*Profile, Fingerprint, error) {
	s := stream{src: r, sum: sha256.New()}
	p := new(Decoder).decodeProfile(&s)
	if err := s.finish(); err != nil {
		return nil, "", err
	}
	return p, Fingerprint(hex.EncodeToString(s.sum.Sum(nil)[:fpBytes])), nil
}

// DecodePlanSet parses a plan-set frame from memory. Canonicality is
// enforced the same way as DecodeProfile.
func DecodePlanSet(data []byte) (*PlanSet, error) {
	s := stream{buf: data}
	ps := s.decodePlanSet()
	if err := s.finish(); err != nil {
		return nil, err
	}
	return ps, nil
}

// PlanSetHeader returns the app a plan-set frame is for and how many
// plans it holds. It reads only the header, the app name and the plan
// count, so unlike DecodePlanSet it does not check the plans themselves.
func PlanSetHeader(data []byte) (app string, plans int, err error) {
	s := stream{buf: data}
	s.header(KindPlanSet)
	app = s.str()
	plans = s.count(10)
	if s.err != nil {
		return "", 0, s.err
	}
	return app, plans, nil
}

// DecodePlanSetFrom parses exactly one canonical plan-set frame from r,
// mirroring DecodeProfileFrom.
func DecodePlanSetFrom(r io.Reader) (*PlanSet, Fingerprint, error) {
	s := stream{src: r, sum: sha256.New()}
	ps := s.decodePlanSet()
	if err := s.finish(); err != nil {
		return nil, "", err
	}
	return ps, Fingerprint(hex.EncodeToString(s.sum.Sum(nil)[:fpBytes])), nil
}
