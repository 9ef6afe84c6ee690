package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestDecodeRejectsVersion1: a version-1 header (the layout without the
// stall dimension) in front of otherwise valid bytes fails with the
// version error, for both frame kinds.
func TestDecodeRejectsVersion1(t *testing.T) {
	prof := EncodeProfile(sampleProfile())
	plans := EncodePlanSet(samplePlanSet())
	prof[4], plans[4] = 1, 1

	const want = "wire: version 1, this decoder speaks 2"
	if _, err := DecodeProfile(prof); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("DecodeProfile(v1) = %v, want %q", err, want)
	}
	if _, _, err := DecodeProfileFrom(bytes.NewReader(prof)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("DecodeProfileFrom(v1) = %v, want %q", err, want)
	}
	if _, err := DecodePlanSet(plans); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("DecodePlanSet(v1) = %v, want %q", err, want)
	}
}

// TestVersion2CarriesStall: the per-load stall sums survive a profile
// round trip, and ToProfile recovers MeanStall from them.
func TestVersion2CarriesStall(t *testing.T) {
	p := sampleProfile()
	p.Canonicalize()
	for i := range p.Loads {
		p.Loads[i].StallCycles = uint64(1000 + 100*i)
	}

	got, err := DecodeProfile(EncodeProfile(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range got.Loads {
		if got.Loads[i].StallCycles != p.Loads[i].StallCycles {
			t.Fatalf("load %d stall = %d, want %d",
				i, got.Loads[i].StallCycles, p.Loads[i].StallCycles)
		}
	}

	tp := got.ToProfile()
	for i, l := range tp.Loads {
		want := float64(p.Loads[i].StallCycles) / float64(p.Loads[i].Samples)
		if l.MeanStall != want {
			t.Fatalf("ToProfile load %d MeanStall = %v, want %v", i, l.MeanStall, want)
		}
	}
}

// TestVersion2CarriesStallPlanSet: the 2-D selection provenance (Score,
// MeanStall) survives a plan-set round trip byte for byte.
func TestVersion2CarriesStallPlanSet(t *testing.T) {
	ps := samplePlanSet()
	for i := range ps.Plans {
		ps.Plans[i].Score = 50 + float64(i)
		ps.Plans[i].MeanStall = 200 + float64(i)
	}

	data := EncodePlanSet(ps)
	got, err := DecodePlanSet(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(EncodePlanSet(got), data) {
		t.Fatal("round trip lost bytes")
	}
	for i := range got.Plans {
		if got.Plans[i].Score != ps.Plans[i].Score ||
			got.Plans[i].MeanStall != ps.Plans[i].MeanStall {
			t.Fatalf("plan %d provenance lost: %+v", i, got.Plans[i])
		}
	}
}
