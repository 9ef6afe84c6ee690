package wire

import (
	"bytes"
	"testing"

	"aptget/internal/testkit"
)

// FuzzDecodeProfile drives the service's network-facing parser with
// arbitrary bytes: it must never panic or over-allocate, and whatever it
// accepts must re-encode to exactly the bytes it accepted (the frames it
// accepts are canonical by construction).
func FuzzDecodeProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeProfile(sampleProfile()))
	r := testkit.NewRNG(0xF0220)
	for i := 0; i < 8; i++ {
		f.Add(EncodeProfile(randomProfile(r)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeProfile(p), data) {
			t.Fatalf("accepted frame is not canonical: %x", data)
		}
	})
}

// FuzzDecodePlanSet mirrors FuzzDecodeProfile for the plan frame.
func FuzzDecodePlanSet(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePlanSet(samplePlanSet()))
	r := testkit.NewRNG(0xF0221)
	for i := 0; i < 8; i++ {
		f.Add(EncodePlanSet(randomPlanSet(r)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodePlanSet(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodePlanSet(ps), data) {
			t.Fatalf("accepted frame is not canonical: %x", data)
		}
	})
}
