package analysis

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// observeAll folds the dataset through a fresh aggregator with the test
// HTTP-join hook.
func observeAll(t *testing.T, in *testInput) *Aggregator {
	t.Helper()
	return foldRecords(t, in, in.Records)
}

// TestSnapshotRoundTrip: every accumulator survives serialize →
// deserialize unchanged — the decoded snapshot finalizes to exactly the
// original's tables.
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

	fresh := ReadOnly(decoded)
	if fresh.Observed() != agg.Observed() {
		t.Errorf("Observed survives round trip: got %d, want %d", fresh.Observed(), agg.Observed())
	}
	got := finalizeAll(fresh, in.IPsScanned)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-tripped tables diverge:\n got %+v\nwant %+v", got, want)
	}
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
// error — and a snapshot that decodes must finalize without a panic. Beyond the seeds added here, the corpus in
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
		finalizeDecoded(s)
	})
}

// finalizeDecoded runs every finalizer over a cleanly decoded snapshot, as
// the golden-file tests render one. Whatever state decodes (certificates
// without device models among it), none of that may panic.
func finalizeDecoded(s *Snapshot) {
	finalizeAll(ReadOnly(s), 1<<20)
}
