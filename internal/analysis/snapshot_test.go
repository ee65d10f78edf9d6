package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ftpcloud/internal/dataset"
)

// observeAll folds the dataset through a fresh aggregator with the test
// HTTP-join hook.
func observeAll(t *testing.T, in *testInput) *Aggregator {
	t.Helper()
	agg := NewAggregator(in.ASDB, in.hook)
	for _, rec := range in.Records {
		if err := agg.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// TestSnapshotRoundTrip: every accumulator survives serialize →
// deserialize → merge-into-fresh unchanged — the finalized tables of the
// reconstructed aggregator match the original exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	in := buildInput(t)
	agg := observeAll(t, in)
	want := finalizeAll(agg, in.IPsScanned)

	raw, err := agg.Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewAggregator(nil, nil)
	fresh.MergeSnapshot(decoded)
	if fresh.Observed() != agg.Observed() {
		t.Errorf("Observed survives round trip: got %d, want %d", fresh.Observed(), agg.Observed())
	}
	got := finalizeAll(fresh, in.IPsScanned)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-tripped tables diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotMergeWithEmpty: merging an empty aggregator's snapshot in
// either direction changes nothing.
func TestSnapshotMergeWithEmpty(t *testing.T) {
	in := buildInput(t)
	agg := observeAll(t, in)
	want := finalizeAll(agg, in.IPsScanned)

	empty := NewAggregator(nil, nil)
	agg.MergeSnapshot(empty.Snapshot())
	if got := finalizeAll(agg, in.IPsScanned); !reflect.DeepEqual(got, want) {
		t.Errorf("merging empty into populated changed tables:\n got %+v\nwant %+v", got, want)
	}

	onto := NewAggregator(nil, nil)
	onto.MergeSnapshot(agg.Snapshot())
	if got := finalizeAll(onto, in.IPsScanned); !reflect.DeepEqual(got, want) {
		t.Errorf("merging populated into empty diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestAggregatorMergeMatchesSingle: partitioning the dataset over several
// aggregators and merging the partials reproduces the single-aggregator
// tables — for every partition width, and over seeded sweeps of record
// mixes, orders and cut points. Each sweep also holds Snapshot to a deep
// copy: folding more records after it leaves the snapshot's tables and
// encoding unchanged.
func TestAggregatorMergeMatchesSingle(t *testing.T) {
	in := buildInput(t)
	want := finalizeAll(observeAll(t, in), in.IPsScanned)

	for _, parts := range []int{2, 3, 4, 8} {
		aggs := make([]*Aggregator, parts)
		for i := range aggs {
			aggs[i] = NewAggregator(in.ASDB, in.hook)
		}
		for i, rec := range in.Records {
			if err := aggs[i%parts].Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		// Merge in reverse order to prove order independence.
		merged := NewAggregator(nil, nil)
		for i := parts - 1; i >= 0; i-- {
			merged.MergeSnapshot(aggs[i].Snapshot())
		}
		if merged.Observed() != len(in.Records) {
			t.Errorf("parts=%d: merged Observed = %d, want %d", parts, merged.Observed(), len(in.Records))
		}
		got := finalizeAll(merged, in.IPsScanned)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parts=%d: merged tables diverge from single aggregator:\n got %+v\nwant %+v",
				parts, got, want)
		}
	}

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := mixedRecords(rng, in.Records, 40+rng.Intn(80))
		single := NewAggregator(in.ASDB, in.hook)
		for _, rec := range recs {
			if err := single.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		want := finalizeAll(single, in.IPsScanned)

		// Shuffle, cut at random points, fold each piece on its own and
		// merge the pieces in a random order.
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		cuts := []int{0, len(recs)}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			cuts = append(cuts, rng.Intn(len(recs)+1))
		}
		sort.Ints(cuts)
		var snaps []*Snapshot
		for i := 1; i < len(cuts); i++ {
			part := NewAggregator(in.ASDB, in.hook)
			for _, rec := range recs[cuts[i-1]:cuts[i]] {
				if err := part.Observe(rec); err != nil {
					t.Fatal(err)
				}
			}
			snaps = append(snaps, part.Snapshot())
		}
		merged := NewAggregator(nil, nil)
		for _, i := range rng.Perm(len(snaps)) {
			merged.MergeSnapshot(snaps[i])
		}
		if merged.Observed() != len(recs) {
			t.Errorf("seed %d: merged Observed = %d, want %d", seed, merged.Observed(), len(recs))
		}
		if got := finalizeAll(merged, in.IPsScanned); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, cuts %v: merged tables diverge from single aggregator:\n got %+v\nwant %+v", seed, cuts, got, want)
		}

		// Deep copy: a snapshot taken at a random cut must not move while
		// the live aggregator folds the rest.
		cut := rng.Intn(len(recs) + 1)
		live := NewAggregator(in.ASDB, in.hook)
		for _, rec := range recs[:cut] {
			if err := live.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		snap := live.Snapshot()
		before, beforeRaw := snapshotTables(snap, in.IPsScanned), mustEncode(t, snap)
		for _, rec := range recs[cut:] {
			if err := live.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got := snapshotTables(snap, in.IPsScanned); !reflect.DeepEqual(got, before) {
			t.Errorf("seed %d: folding after Snapshot (cut %d) changed the snapshot's tables", seed, cut)
		}
		if got, want := decodeState(t, mustEncode(t, snap)), decodeState(t, beforeRaw); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: folding after Snapshot (cut %d) changed the snapshot's encoding", seed, cut)
		}
	}
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

// snapshotTables finalizes a snapshot's tables through a fresh aggregator.
func snapshotTables(s *Snapshot, ipsScanned uint64) tableSet {
	agg := NewAggregator(nil, nil)
	agg.MergeSnapshot(s)
	return finalizeAll(agg, ipsScanned)
}

// decodeState decodes an encoding for comparison: gob writes maps in
// iteration order, so two encodings of one state compare as decoded values.
func decodeState(t *testing.T, raw []byte) *Snapshot {
	t.Helper()
	s, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotDecodeCorrupt: damaged bytes surface as ErrCorruptSnapshot,
// never a panic.
func TestSnapshotDecodeCorrupt(t *testing.T) {
	in := buildInput(t)
	valid, err := observeAll(t, in).Snapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:3],
		"bad magic":    append([]byte("XXXX"), valid[4:]...),
		"bad version":  append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"truncated":    valid[:len(valid)/2],
		"garbage tail": append(append([]byte{}, valid[:8]...), bytes.Repeat([]byte{0xff}, 64)...),
	}
	for name, raw := range cases {
		if _, err := DecodeSnapshotBytes(raw); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: got %v, want ErrCorruptSnapshot", name, err)
		}
	}

	// Flipping any single byte must never panic; errors are acceptable,
	// silent success only for bytes gob ignores.
	for i := range valid {
		mutated := append([]byte{}, valid...)
		mutated[i] ^= 0x5a
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte %d flipped: decode panicked: %v", i, p)
				}
			}()
			_, _ = DecodeSnapshotBytes(mutated)
		}()
	}
}

// FuzzSnapshotDecode: arbitrary bytes must yield either a snapshot or an
// error wrapping ErrCorruptSnapshot — never a panic, never an untyped
// error — and a snapshot that decodes must merge, fold on and finalize
// without a panic. Beyond the seeds added here, the corpus in
// testdata/fuzz/FuzzSnapshotDecode holds populated aggregates.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FCAS"))
	f.Add([]byte{'F', 'C', 'A', 'S', 1})
	f.Add([]byte{'F', 'C', 'A', 'S', 1, 0xff, 0x00, 0x42})
	f.Add(bytes.Repeat([]byte{0x7f}, 128))
	var empty Snapshot
	if raw, err := empty.EncodeBytes(); err == nil {
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	fold := buildInput(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSnapshotBytes(raw)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("decode error is not ErrCorruptSnapshot: %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil snapshot with nil error")
		}
		foldDecoded(t, fold, s)
	})
}

// foldDecoded takes a cleanly decoded snapshot the way a resume does:
// merged into a fresh aggregator, with records folded on top (among them
// FTPS hosts whose certificates carry a device model) and every finalizer
// run. Whatever state Merge accepts, none of that may panic.
func foldDecoded(t *testing.T, in *testInput, s *Snapshot) {
	t.Helper()
	agg := NewAggregator(in.ASDB, in.hook)
	agg.MergeSnapshot(s)
	for _, rec := range in.Records {
		if err := agg.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	finalizeAll(agg, in.IPsScanned)
	agg.Snapshot()
}
