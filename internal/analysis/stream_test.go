package analysis

import (
	"reflect"
	"testing"
)

// tableSet bundles every finalized analysis for equality comparison.
type tableSet struct {
	Funnel           Funnel
	Classification   Classification
	ASConcentration  ASConcentration
	Devices          DeviceBreakdown
	TopASes          []TopAS
	Exposure         Exposure
	ExposureByDevice ExposureByDevice
	CVEs             CVEExposure
	Malicious        Malicious
	PortBounce       PortBounce
	FTPS             FTPS
	Unexpected       UnexpectedServices
}

func finalizeAll(agg *Aggregator, ipsScanned uint64) tableSet {
	return tableSet{
		Funnel:           agg.Funnel(ipsScanned),
		Classification:   agg.Classification(),
		ASConcentration:  agg.ASConcentration(),
		Devices:          agg.Devices(),
		TopASes:          agg.TopASes(10),
		Exposure:         agg.Exposure(),
		ExposureByDevice: agg.ExposureByDevice(),
		CVEs:             agg.CVEs(),
		Malicious:        agg.Malicious(),
		PortBounce:       agg.PortBounce(),
		FTPS:             agg.FTPS(10),
		Unexpected:       agg.Unexpected(),
	}
}

// TestAggregatorOrderIndependent feeds the hand-built dataset through a
// streaming Aggregator in reverse order and checks every table against the
// in-order fold: a census emits records in completion order, so the tables
// must not depend on it.
func TestAggregatorOrderIndependent(t *testing.T) {
	in := buildInput(t)
	agg := NewAggregator(in.ASDB, in.hook)
	for i := len(in.Records) - 1; i >= 0; i-- {
		if err := agg.Observe(in.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Observed() != len(in.Records) {
		t.Errorf("Observed = %d, want %d", agg.Observed(), len(in.Records))
	}
	got := finalizeAll(agg, in.IPsScanned)
	want := finalizeAll(observeAll(t, in), in.IPsScanned)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reverse-order tables diverge from in-order tables:\n got %+v\nwant %+v", got, want)
	}

	// Finalize is pure: a second pass must be identical.
	again := finalizeAll(agg, in.IPsScanned)
	if !reflect.DeepEqual(got, again) {
		t.Error("second finalize diverges — finalize mutated accumulator state")
	}

	// Close drops hooks but keeps finalize working.
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, finalizeAll(agg, in.IPsScanned)) {
		t.Error("finalize after Close diverges")
	}
}

// TestAggregatorEmpty: an aggregator that observed nothing finalizes the
// same tables as one restored from its encoded snapshot — a checkpoint
// taken before the first record resumes to an empty census.
func TestAggregatorEmpty(t *testing.T) {
	agg := NewAggregator(nil, nil)
	raw, err := agg.Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewAggregator(nil, nil)
	restored.MergeSnapshot(snap)
	if restored.Observed() != 0 {
		t.Errorf("restored empty aggregate observed %d records", restored.Observed())
	}
	got := finalizeAll(restored, 10)
	want := finalizeAll(agg, 10)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty aggregate diverges after a snapshot round trip:\n got %+v\nwant %+v", got, want)
	}
}
