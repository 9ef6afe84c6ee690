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
// second copy. The pass runs over a frame held whole in memory: the
// service reads an upload into a buffer, hashing it as it arrives, and
// decodes only when the hash finds no cached plans
// ((*Decoder).DecodeProfile).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"aptget/internal/lbr"
)

// stream reads the fields of one frame held whole in buf.
type stream struct {
	buf []byte // the frame; the unread portion is buf[pos:]
	pos int
	err error
}

func (s *stream) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// remaining is how many bytes are left unread.
func (s *stream) remaining() int { return len(s.buf) - s.pos }

// truncated fails the decode for a field that runs past the frame's
// end, which is where the missing byte would be.
func (s *stream) truncated() {
	s.fail("wire: truncated frame at offset %d", len(s.buf))
}

// take consumes the next n bytes, or returns nil when fewer are left.
func (s *stream) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if s.remaining() < n {
		s.truncated()
		return nil
	}
	b := s.buf[s.pos : s.pos+n]
	s.pos += n
	return b
}

func (s *stream) byte() byte {
	if b := s.take(1); b != nil {
		return b[0]
	}
	return 0
}

// uint reads a minimally-encoded uvarint: a multi-byte encoding whose
// final byte is zero carries padding the canonical writer never emits.
// The loop is bounded by the frame's end and by the tenth byte, which
// may carry only the 64th bit.
func (s *stream) uint() uint64 {
	if s.err != nil {
		return 0
	}
	var v uint64
	for i, c := range s.buf[s.pos:] {
		if c < 0x80 {
			switch {
			case i == 9 && c > 1:
				s.fail("wire: uvarint overflows 64 bits at offset %d", s.pos)
				return 0
			case i > 0 && c == 0:
				s.fail("wire: frame is not canonical: padded varint at offset %d", s.pos)
				return 0
			}
			s.pos += i + 1
			return v | uint64(c)<<(7*i)
		}
		if i == 9 {
			s.fail("wire: uvarint overflows 64 bits at offset %d", s.pos)
			return 0
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	s.truncated()
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
	start := s.pos
	v := s.int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		s.fail("wire: frame is not canonical: value %d overflows int32 at offset %d", v, start)
		return 0
	}
	return int32(v)
}

func (s *stream) f64() float64 {
	if b := s.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (s *stream) bool() bool {
	b := s.byte()
	if s.err != nil {
		return false
	}
	if b > 1 {
		s.fail("wire: bad bool byte %d at offset %d", b, s.pos-1)
		return false
	}
	return b == 1
}

// count reads a length prefix and checks it against the bytes left:
// each element needs at least elemMin of them. A slice sized by the
// count therefore never holds more elements than the frame can carry.
func (s *stream) count(elemMin int) int {
	start := s.pos
	v := s.uint()
	if s.err != nil {
		return 0
	}
	if v > uint64(s.remaining())/uint64(elemMin) {
		s.fail("wire: length %d exceeds remaining %d bytes at offset %d",
			v, s.remaining(), start)
		return 0
	}
	return int(v)
}

func (s *stream) str() string {
	n := s.count(1)
	if s.err != nil || n == 0 {
		return ""
	}
	return string(s.take(n))
}

func (s *stream) f64s() []float64 {
	n := s.count(8)
	if s.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
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
	m := s.take(len(magic))
	if s.err != nil {
		return
	}
	if [len(magic)]byte(m) != magic {
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
	if s.remaining() > 0 {
		return fmt.Errorf("wire: trailing bytes after frame at offset %d", s.pos)
	}
	return nil
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

// decodeProfile is the profile parser. Each slice starts from the
// decoder's backing, sized by a count the frame's length bounds. Every
// sample's Entries is a full-capacity slice.
func (d *Decoder) decodeProfile(s *stream) *Profile {
	s.header(KindProfile)
	p := &d.p
	*p = Profile{App: s.str(), Cycles: s.uint(), Instructions: s.uint()}
	if n := s.count(3); s.err == nil && n > 0 {
		p.Loads = reserve(d.loads, n)
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
		p.Samples = reserve(d.samples, n)
		entries := reserve(d.entries, d.entryHint)
		need := 0
		for i := 0; i < n && s.err == nil; i++ {
			var sm lbr.Sample
			sm.Cycle = s.uint()
			if m := s.count(3); s.err == nil && m > 0 {
				// A snapshot goes into the kept backing when it fits
				// there, else into its own slice.
				shared := cap(entries)-len(entries) >= m
				es := entries[len(entries):]
				if !shared {
					es = make([]lbr.Entry, 0, m)
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
		p.Loops = reserve(d.loops, n)
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

// decodePlanSet is the plan-set parser. Plan order is
// the analysis order — the encoder preserves it, so no order check.
func (s *stream) decodePlanSet() *PlanSet {
	s.header(KindPlanSet)
	ps := &PlanSet{}
	ps.App = s.str()
	if n := s.count(10); s.err == nil && n > 0 {
		ps.Plans = make([]Plan, 0, n)
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

// DecodeProfileFrom reads r to its end into a pooled Body, parses the
// bytes as exactly one canonical profile frame (trailing bytes are an
// error) and returns the profile, which is the caller's to keep, with
// the frame's Fingerprint.
func DecodeProfileFrom(r io.Reader) (*Profile, Fingerprint, error) {
	b := GetBody()
	defer b.Release()
	fp, err := b.Fill(r, -1)
	if err != nil {
		return nil, "", err
	}
	p, err := DecodeProfile(b.Bytes)
	if err != nil {
		return nil, "", err
	}
	return p, fp, nil
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
