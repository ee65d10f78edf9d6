package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftpcloud/internal/dataset"
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

	// Seeded sweeps of record mixes and orders: every permutation of a
	// record set folds to the same tables.
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := mixedRecords(rng, in.Records, 40+rng.Intn(80))
		want := finalizeAll(foldRecords(t, in, recs), in.IPsScanned)
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		if got := finalizeAll(foldRecords(t, in, recs), in.IPsScanned); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: shuffled tables diverge:\n got %+v\nwant %+v", seed, got, want)
		}
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

// foldRecords folds recs through a fresh aggregator with the test
// HTTP-join hook.
func foldRecords(t *testing.T, in *testInput, recs []*dataset.HostRecord) *Aggregator {
	t.Helper()
	agg := NewAggregator(in.ASDB, in.hook)
	for _, rec := range recs {
		if err := agg.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// mixedRecords draws n records from the hand-built templates, flipping
// anonymous access on some and mixing in endpoints the identification
// stage shed, so seeds differ in record mix as well as order.
func mixedRecords(rng *rand.Rand, templates []*dataset.HostRecord, n int) []*dataset.HostRecord {
	protos := []string{"http", "ssh", "tls", "telnet"}
	recs := make([]*dataset.HostRecord, n)
	for i := range recs {
		if rng.Intn(5) == 0 {
			recs[i] = &dataset.HostRecord{
				IP:       fmt.Sprintf("20.0.1.%d", i),
				PortOpen: true,
				Service:  protos[rng.Intn(len(protos))],
				Banner:   fmt.Sprintf("banner-%d", rng.Intn(4)),
			}
			continue
		}
		rec := *templates[rng.Intn(len(templates))]
		if rng.Intn(4) == 0 {
			rec.AnonymousOK = !rec.AnonymousOK
		}
		recs[i] = &rec
	}
	return recs
}

// TestAggregatorEmpty: an aggregator that observed nothing finalizes the
// same tables as its encoded snapshot decoded.
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
	restored := ReadOnly(snap)
	if restored.Observed() != 0 {
		t.Errorf("restored empty aggregate observed %d records", restored.Observed())
	}
	got := finalizeAll(restored, 10)
	want := finalizeAll(agg, 10)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty aggregate diverges after a snapshot round trip:\n got %+v\nwant %+v", got, want)
	}
}
