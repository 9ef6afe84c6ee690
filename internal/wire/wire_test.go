package wire

import (
	"bytes"
	"strings"
	"testing"

	"aptget/internal/lbr"
)

func sampleProfile() *Profile {
	return &Profile{
		App:          "BFS",
		Cycles:       123456,
		Instructions: 98765,
		Loads: []Load{
			{PC: 40, Samples: 100, Share: 0.7},
			{PC: 12, Samples: 30, Share: 0.21},
		},
		Samples: []lbr.Sample{
			{Cycle: 10, Entries: []lbr.Entry{{From: 40, To: 8, Cycle: 9}}},
			{Cycle: 20, Entries: []lbr.Entry{{From: 40, To: 8, Cycle: 18}, {From: 12, To: 4, Cycle: 19}}},
		},
		Loops: []LoopShape{
			{Depth: 1, Parent: -1, Latches: 1, Blocks: 4, HasInduction: true},
			{Depth: 2, Parent: 0, Latches: 1, Blocks: 2, HasInduction: true},
		},
	}
}

func samplePlanSet() *PlanSet {
	return &PlanSet{
		App: "BFS",
		Plans: []Plan{
			{
				LoadPC: 40, LoadName: "edge_load", Site: "inner", Distance: 12,
				IC: 14, MC: 168, AvgTrip: 90.5, K: 5,
				InnerDistance: 12, OuterDistance: 0,
				PeaksInner:     []float64{14, 182},
				LatencySamples: 512,
			},
			{
				LoadPC: 12, LoadName: "visit_load", Site: "outer", Distance: 3,
				IC: 20, MC: 60, AvgTrip: 4, K: 5,
				InnerDistance: 3, OuterDistance: 3,
				PeaksInner: []float64{20, 80}, PeaksOuter: []float64{90, 240},
				LatencySamples: 64, DroppedNonMonotonic: 2,
				Fallback: "inner latency unimodal; distance from outer loop distribution",
			},
		},
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := sampleProfile()
	data := EncodeProfile(p)
	got, err := DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !profileEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
	// Re-encoding the decoded profile must reproduce the bytes exactly.
	if !bytes.Equal(EncodeProfile(got), data) {
		t.Fatal("encode(decode(b)) != b")
	}
}

func TestPlanSetRoundTrip(t *testing.T) {
	ps := samplePlanSet()
	data := EncodePlanSet(ps)
	got, err := DecodePlanSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if !planSetEqual(ps, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", ps, got)
	}
	if !bytes.Equal(EncodePlanSet(got), data) {
		t.Fatal("encode(decode(b)) != b")
	}
	// The header reader agrees with the full decode, and rejects a frame
	// cut inside the app name.
	app, n, err := PlanSetHeader(data)
	if err != nil || app != ps.App || n != len(ps.Plans) {
		t.Fatalf("PlanSetHeader = %q, %d, %v; want %q, %d", app, n, err, ps.App, len(ps.Plans))
	}
	if _, _, err := PlanSetHeader(data[:8]); err == nil {
		t.Fatal("PlanSetHeader accepted a truncated header")
	}
}

func TestFingerprintIgnoresFieldOrdering(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	// Shuffle the client-controlled slice orderings.
	b.Loads[0], b.Loads[1] = b.Loads[1], b.Loads[0]
	b.Samples[0], b.Samples[1] = b.Samples[1], b.Samples[0]
	if FingerprintOf(a) != FingerprintOf(b) {
		t.Fatal("fingerprint must be invariant under load/sample reordering")
	}
	// But content changes must change it.
	b.Loads[0].Samples++
	if FingerprintOf(a) == FingerprintOf(b) {
		t.Fatal("fingerprint ignored a content change")
	}
}

func TestShapeHashIgnoresPCs(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	// Simulate binary drift: every PC moves, loop structure stays.
	for i := range b.Loads {
		b.Loads[i].PC += 4096
	}
	for i := range b.Samples {
		for j := range b.Samples[i].Entries {
			b.Samples[i].Entries[j].From += 4096
			b.Samples[i].Entries[j].To += 4096
		}
	}
	if a.ShapeHash() != b.ShapeHash() {
		t.Fatal("shape hash must ignore raw PCs")
	}
	if FingerprintOf(a) == FingerprintOf(b) {
		t.Fatal("fingerprint should see the PC drift")
	}
	// A structural change must move the shape hash.
	b.Loops[1].Depth = 3
	if a.ShapeHash() == b.ShapeHash() {
		t.Fatal("shape hash ignored a loop-structure change")
	}
	// And so must the app identity.
	c := sampleProfile()
	c.App = "DFS"
	if a.ShapeHash() == c.ShapeHash() {
		t.Fatal("shape hash must include the app identity")
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	good := EncodeProfile(sampleProfile())
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("NOPE1234"),
		"truncated":  good[:len(good)/2],
		"trailing":   append(append([]byte(nil), good...), 0xFF),
		"wrong kind": EncodePlanSet(samplePlanSet()),
	}
	for name, data := range cases {
		if _, err := DecodeProfile(data); err == nil {
			t.Errorf("%s: DecodeProfile accepted a malformed frame", name)
		}
	}
	// Version mismatch: patch the version varint (offset 4, value 1).
	bad := append([]byte(nil), good...)
	bad[4] = Version + 1
	if _, err := DecodeProfile(bad); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	// A length prefix larger than the frame must error, not allocate.
	huge := append([]byte(nil), good[:6]...)          // header only
	huge = append(huge, 0x00)                         // app: empty string
	huge = append(huge, 0x01, 0x01)                   // cycles, instructions
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // loads count ≈ 4G
	if _, err := DecodeProfile(huge); err == nil {
		t.Error("absurd length prefix accepted")
	}
}

func TestValidate(t *testing.T) {
	p := sampleProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	p.Loops[1].Parent = 7
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range loop parent accepted")
	}
	p = sampleProfile()
	p.App = ""
	if err := p.Validate(); err == nil {
		t.Fatal("empty app accepted")
	}
}

// profileEqual compares after canonicalization, treating nil and empty
// slices as distinct only when content differs.
func profileEqual(a, b *Profile) bool {
	ca, cb := *a, *b
	ca.Loads = append([]Load(nil), a.Loads...)
	ca.Samples = append([]lbr.Sample(nil), a.Samples...)
	cb.Loads = append([]Load(nil), b.Loads...)
	cb.Samples = append([]lbr.Sample(nil), b.Samples...)
	ca.Canonicalize()
	cb.Canonicalize()
	return bytes.Equal(EncodeProfile(&ca), EncodeProfile(&cb))
}

func planSetEqual(a, b *PlanSet) bool {
	return bytes.Equal(EncodePlanSet(a), EncodePlanSet(b))
}
