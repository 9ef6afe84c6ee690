package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecodeProfileFromMatchesDecodeProfile: the streaming decoder must
// accept exactly what the in-memory decoder accepts, produce the same
// value, and fingerprint the consumed bytes identically — regardless of
// how the reader chunks the body.
func TestDecodeProfileFromMatchesDecodeProfile(t *testing.T) {
	for _, n := range []int{0, 1, 64, 700} {
		p := benchProfile(n)
		data := EncodeProfile(p)
		want, err := DecodeProfile(data)
		if err != nil {
			t.Fatalf("samples=%d: DecodeProfile: %v", n, err)
		}
		wantFP := FingerprintBytes(data)

		for _, tc := range []struct {
			name string
			r    func() *bytes.Reader
		}{
			{"whole", func() *bytes.Reader { return bytes.NewReader(data) }},
		} {
			got, fp, err := DecodeProfileFrom(tc.r())
			if err != nil {
				t.Fatalf("samples=%d %s: DecodeProfileFrom: %v", n, tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("samples=%d %s: stream decode differs from in-memory decode", n, tc.name)
			}
			if fp != wantFP {
				t.Fatalf("samples=%d %s: fingerprint %s, want %s", n, tc.name, fp, wantFP)
			}
		}

		// One byte at a time: every refill boundary is exercised.
		got, fp, err := DecodeProfileFrom(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("samples=%d one-byte: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) || fp != wantFP {
			t.Fatalf("samples=%d one-byte: decode mismatch", n)
		}
	}
}

func TestDecodeProfileFromRejects(t *testing.T) {
	data := EncodeProfile(benchProfile(8))

	if _, _, err := DecodeProfileFrom(bytes.NewReader(append(append([]byte(nil), data...), 0x00))); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte accepted: %v", err)
	}
	if _, _, err := DecodeProfileFrom(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, _, err := DecodeProfileFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestDecodeProfileFromBoundsAllocation: a stream that declares an
// enormous element count but delivers almost no bytes must fail fast
// without allocating anywhere near the declared size — the chunked
// growth only ever runs ahead of the stream by one window.
func TestDecodeProfileFromBoundsAllocation(t *testing.T) {
	w := newWriter(KindProfile)
	w.str("BFS")
	w.uint(0)       // cycles
	w.uint(0)       // instructions
	w.uint(1 << 40) // loads: a terabyte's worth, none delivered
	if _, _, err := DecodeProfileFrom(bytes.NewReader(w.buf)); err == nil {
		t.Fatal("absurd load count accepted")
	}
}

// TestDecodeRejectsNonCanonicalStream: the incremental checks must catch
// what the old re-encode comparison caught — padded varints, unsorted
// loads, int32 overflow — on both decoder entry points.
func TestDecodeRejectsNonCanonicalStream(t *testing.T) {
	p := benchProfile(4)
	good := EncodeProfile(p)

	// Each frame must fail for being non-canonical, not for some other
	// reason a malformed hand-built frame could trip first.
	reject := func(name string, bad []byte) {
		t.Helper()
		if _, err := DecodeProfile(bad); err == nil || !strings.Contains(err.Error(), "not canonical") {
			t.Errorf("%s: DecodeProfile = %v, want a non-canonical rejection", name, err)
		}
		if _, _, err := DecodeProfileFrom(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not canonical") {
			t.Errorf("%s: DecodeProfileFrom = %v, want a non-canonical rejection", name, err)
		}
	}
	mutate := func(name string, f func([]byte) []byte) {
		reject(name, f(append([]byte(nil), good...)))
	}

	// Pad the version varint: 0x02 -> 0x82 0x00 (same value, two bytes).
	mutate("padded varint", func(b []byte) []byte {
		out := append([]byte(nil), b[:4]...)
		out = append(out, 0x80|Version, 0x00)
		return append(out, b[5:]...)
	})

	// Unsorted loads: encode a profile whose loads are swapped out of
	// delinquency order, bypassing Canonicalize by writing fields by hand.
	w := newWriter(KindProfile)
	w.str("BFS")
	w.uint(1)
	w.uint(1)
	w.uint(2)
	w.uint(10) // PC=10, Samples=5
	w.uint(5)
	w.uint(0) // stall cycles
	w.f64(0.2)
	w.uint(20) // PC=20, Samples=9 — more delinquent, must come first
	w.uint(9)
	w.uint(0)
	w.f64(0.8)
	w.uint(0) // samples
	w.uint(0) // loops
	reject("unsorted loads", w.buf)

	// Loop field beyond int32: the old decoder truncated and failed the
	// re-encode comparison; the new one must reject outright.
	w2 := newWriter(KindProfile)
	w2.str("BFS")
	w2.uint(1)
	w2.uint(1)
	w2.uint(0)      // loads
	w2.uint(0)      // samples
	w2.uint(1)      // loops
	w2.int(1 << 40) // Depth overflows int32
	w2.int(-1)
	w2.int(1)
	w2.int(1)
	w2.bool(true)
	reject("int32 overflow", w2.buf)
}

// TestEncodeProfileFastPathMatchesSorted: the canonical fast path must
// emit byte-identical frames to the copy-and-sort path.
func TestEncodeProfileFastPathMatchesSorted(t *testing.T) {
	p := benchProfile(32) // canonicalized by construction
	fast := EncodeProfile(p)

	// Shuffle a copy to force the sort path, then compare bytes.
	shuffled := *p
	shuffled.Loads = []Load{p.Loads[2], p.Loads[0], p.Loads[1]}
	shuffled.Samples = append(shuffled.Samples[:0:0], p.Samples...)
	for i, j := 0, len(shuffled.Samples)-1; i < j; i, j = i+1, j-1 {
		shuffled.Samples[i], shuffled.Samples[j] = shuffled.Samples[j], shuffled.Samples[i]
	}
	slow := EncodeProfile(&shuffled)
	if !bytes.Equal(fast, slow) {
		t.Fatal("fast path and sort path disagree")
	}
}

// Allocation regression locks for the zero/low-alloc claims. A
// one-shot decode allocates the returned structures themselves (one
// Entries slice per sample is the structural floor); encode of a
// canonical profile is a single output-buffer allocation. A reused
// Decoder allocates only the app string, whatever the sample count.
func TestWireAllocsPerRun(t *testing.T) {
	p := benchProfile(64)
	data := EncodeProfile(p)

	if got := testing.AllocsPerRun(200, func() { EncodeProfile(p) }); got > 2 {
		t.Errorf("EncodeProfile(canonical): %.1f allocs/op, want <= 2", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeProfile(data); err != nil {
			t.Fatal(err)
		}
	}); got > 74 { // 64 entries slices + top-level structures
		t.Errorf("DecodeProfile: %.1f allocs/op, want <= 74", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeProfileFrom(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}); got > 82 { // + reader, hasher, window
		t.Errorf("DecodeProfileFrom: %.1f allocs/op, want <= 82", got)
	}
	var d Decoder
	for _, n := range []int{4, 64, 1024} {
		data := EncodeProfile(benchProfile(n))
		if got := testing.AllocsPerRun(50, func() {
			if _, err := d.DecodeProfile(data); err != nil {
				t.Fatal(err)
			}
		}); got > 1 { // app string
			t.Errorf("reused Decoder, %d samples: %.1f allocs/op, want <= 1", n, got)
		}
	}
}

// TestDecoderReuse: a Decoder decodes frames of shrinking and growing
// size into its kept buffers and gives the same profile as a fresh
// decode each time, including after a rejected frame.
func TestDecoderReuse(t *testing.T) {
	var d Decoder
	for _, n := range []int{64, 3, 0, 200, 17} {
		data := EncodeProfile(benchProfile(n))
		want, err := DecodeProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecodeProfile(data[:len(data)-1]); err == nil {
			t.Fatalf("%d samples: truncated frame accepted", n)
		}
		got, err := d.DecodeProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d samples: reused decoder disagrees with a fresh decode", n)
		}
		if !bytes.Equal(EncodeProfile(got), data) {
			t.Fatalf("%d samples: reused decode does not re-encode to its frame", n)
		}
	}
}

// TestUintSplitAcrossRefills: stream.uint decodes straight from the
// window when ten bytes are buffered and byte by byte otherwise. Both
// paths must accept the same encodings with the same values and reject
// the rest with the same error. Each edge encoding is placed so that it
// starts 0–11 bytes before a streamChunk boundary and is decoded from
// memory (fast path), from a chunked reader (the window refills
// mid-varint when fewer than ten bytes are left before the boundary)
// and from a one-byte reader (byte-wise throughout).
func TestUintSplitAcrossRefills(t *testing.T) {
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xff}, n) }
	c80 := func(n int) []byte { return bytes.Repeat([]byte{0x80}, n) }
	cases := []struct {
		name string
		enc  []byte
		want uint64
		err  string // "" when accepted
	}{
		{"zero", []byte{0x00}, 0, ""},
		{"one byte max", []byte{0x7f}, 127, ""},
		{"two bytes", []byte{0x80, 0x01}, 128, ""},
		{"nine bytes max", append(ff(8), 0x7f), 1<<63 - 1, ""},
		{"2^63", append(c80(9), 0x01), 1 << 63, ""},
		{"uint64 max", append(ff(9), 0x01), 1<<64 - 1, ""},
		{"overflow tenth byte", append(ff(9), 0x02), 0, "overflows"},
		{"eleven bytes", append(c80(10), 0x01), 0, "overflows"},
		{"padded", []byte{0x80, 0x00}, 0, "padded"},
		{"padded ten bytes", append(c80(9), 0x00), 0, "padded"},
		{"truncated", []byte{0x80}, 0, "truncated"},
		{"truncated nine bytes", ff(9), 0, "truncated"},
	}
	const tail = 5 // a one-byte varint after each accepted encoding
	for _, c := range cases {
		for lead := 0; lead <= 11; lead++ {
			// streamChunk-lead one-byte zero varints put the encoding's
			// first byte lead bytes before the window's first refill.
			// Accepted and rejected encodings are followed by the tail
			// and ten unread bytes, so the in-memory decode takes the
			// fast path on them.
			data := make([]byte, streamChunk-lead, streamChunk+32)
			data = append(data, c.enc...)
			if c.err != "truncated" {
				data = append(data, tail)
				data = append(data, make([]byte, 10)...)
			}
			sources := map[string]func() *stream{
				"memory":   func() *stream { return &stream{buf: data} },
				"chunked":  func() *stream { return &stream{src: bytes.NewReader(data), sum: sha256.New()} },
				"one-byte": func() *stream { return &stream{src: iotest.OneByteReader(bytes.NewReader(data)), sum: sha256.New()} },
			}
			var firstErr string
			for src, open := range sources {
				s := open()
				for i := 0; i < streamChunk-lead; i++ {
					if v := s.uint(); v != 0 || s.err != nil {
						t.Fatalf("%s/%s lead %d: filler varint %d = %d, %v", c.name, src, lead, i, v, s.err)
					}
				}
				v := s.uint()
				if c.err == "" {
					if s.err != nil || v != c.want {
						t.Errorf("%s/%s lead %d: got %d, %v; want %d", c.name, src, lead, v, s.err, c.want)
					} else if next := s.uint(); next != tail || s.err != nil {
						t.Errorf("%s/%s lead %d: next varint = %d, %v; want %d", c.name, src, lead, next, s.err, tail)
					}
					continue
				}
				if s.err == nil || !strings.Contains(s.err.Error(), c.err) {
					t.Errorf("%s/%s lead %d: got %d, %v; want a %q rejection", c.name, src, lead, v, s.err, c.err)
					continue
				}
				if firstErr == "" {
					firstErr = s.err.Error()
				} else if s.err.Error() != firstErr {
					t.Errorf("%s/%s lead %d: error %q differs from %q", c.name, src, lead, s.err, firstErr)
				}
			}
		}
	}
}

// TestBodyFill: Fill reads the whole body and fingerprints it as
// FingerprintBytes does, whatever the reader's chunking and whatever
// length the sender declared; a reused Body reads a frame it has room
// for allocating only the fingerprint; a declared length allocates no
// more than maxPresize ahead of the bytes that arrive.
func TestBodyFill(t *testing.T) {
	data := EncodeProfile(benchProfile(700))
	want := FingerprintBytes(data)
	var b Body
	for _, size := range []int64{-1, 0, 10, int64(len(data)), int64(len(data)) + 100} {
		for name, r := range map[string]func() io.Reader{
			"whole":    func() io.Reader { return bytes.NewReader(data) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		} {
			fp, err := b.Fill(r(), size)
			if err != nil || fp != want || !bytes.Equal(b.Bytes, data) {
				t.Fatalf("size %d %s: Fill = %s, %v (%d bytes); want %s (%d bytes)",
					size, name, fp, err, len(b.Bytes), want, len(data))
			}
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := b.Fill(bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}); got > 2 { // reader, fingerprint
		t.Errorf("reused Body: %.1f allocs/op, want <= 2", got)
	}

	var fresh Body
	if _, err := fresh.Fill(bytes.NewReader(data[:10]), 1<<40); err != nil {
		t.Fatal(err)
	}
	if c := cap(fresh.Bytes); c > maxPresize+minGrow {
		t.Fatalf("declared 1 TiB, sent 10 bytes: buffer capacity %d", c)
	}
	if _, err := fresh.Fill(iotest.ErrReader(io.ErrUnexpectedEOF), -1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error = %v, want it wrapped", err)
	}
}
