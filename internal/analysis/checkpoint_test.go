package analysis

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ftpcloud/internal/simnet"
)

// checkpointFixture returns a populated snapshot carrying checkpoint state,
// exercising every CheckpointState field including nested maps.
func checkpointFixture(t *testing.T) *Snapshot {
	t.Helper()
	in := buildInput(t)
	s := observeAll(t, in).Snapshot()
	s.Checkpoint = &CheckpointState{
		Seed:         42,
		Epoch:        3,
		Scale:        2,
		Shards:       4,
		ScanSize:     1 << 18,
		ConfigDigest: 0xdeadbeefcafe,
		Cursors:      []uint64{100, 2048, 0, 77},
		Streamed:     512,
		Probed:       262144,
		Responded:    9000,
		Truncated:    true,
		Robustness: RobustnessState{
			Records:     512,
			Partial:     3,
			Terminated:  1,
			Truncated:   2,
			SkippedDirs: 9,
			Retries:     40,
			DataBytes:   1 << 20,
			Failures:    map[string]int{"deadline": 1, "canceled": 2},
		},
	}
	return s
}

// TestCheckpointRoundTrip: a version-2 frame carries the checkpoint state
// and the observed count through encode → decode unchanged.
func TestCheckpointRoundTrip(t *testing.T) {
	s := checkpointFixture(t)
	raw, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := raw[4]; got != snapshotVersionCheckpoint {
		t.Fatalf("checkpoint snapshot framed as version %d, want %d", got, snapshotVersionCheckpoint)
	}
	decoded, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Checkpoint == nil {
		t.Fatal("checkpoint state lost in round trip")
	}
	if !reflect.DeepEqual(decoded.Checkpoint, s.Checkpoint) {
		t.Errorf("checkpoint diverges:\n got %+v\nwant %+v", decoded.Checkpoint, s.Checkpoint)
	}
	if decoded.Observed != s.Observed {
		t.Errorf("Observed = %d, want %d", decoded.Observed, s.Observed)
	}
}

// TestCheckpointFrameVersions: plain aggregates stay on version 1 (readable
// by older decoders); only checkpoint-carrying snapshots move to version 2,
// and only those listing pending hosts to version 3, which a version-2
// reader refuses instead of losing the hosts. A frame smuggling state its
// version cannot carry is corrupt.
func TestCheckpointFrameVersions(t *testing.T) {
	in := buildInput(t)
	plain := observeAll(t, in).Snapshot()
	raw, err := plain.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := raw[4]; got != snapshotVersion {
		t.Errorf("plain aggregate framed as version %d, want %d", got, snapshotVersion)
	}
	if _, err := DecodeSnapshotBytes(raw); err != nil {
		t.Errorf("version-1 frame failed to decode: %v", err)
	}

	// Forge a version-1 frame whose gob stream carries checkpoint fields.
	cp := checkpointFixture(t)
	forged, err := cp.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	forged[4] = snapshotVersion
	if _, err := DecodeSnapshotBytes(forged); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("version-1 frame with checkpoint state: got %v, want ErrCorruptSnapshot", err)
	}

	// Pending hosts move the frame to version 3, and it round-trips them.
	cp.Checkpoint.Pending = []simnet.IP{simnet.MustParseIP("1.0.0.7"), simnet.MustParseIP("1.2.3.4")}
	raw, err = cp.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := raw[4]; got != snapshotVersionPending {
		t.Errorf("checkpoint with pending hosts framed as version %d, want %d", got, snapshotVersionPending)
	}
	decoded, err := DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatalf("version-3 frame failed to decode: %v", err)
	}
	if !reflect.DeepEqual(decoded.Checkpoint, cp.Checkpoint) {
		t.Errorf("version-3 checkpoint diverges:\n got %+v\nwant %+v", decoded.Checkpoint, cp.Checkpoint)
	}
	for _, v := range []byte{snapshotVersion, snapshotVersionCheckpoint} {
		forged := bytes.Clone(raw)
		forged[4] = v
		if _, err := DecodeSnapshotBytes(forged); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("version-%d frame with pending hosts: got %v, want ErrCorruptSnapshot", v, err)
		}
	}
	if _, err := DecodeSnapshotBytes(append([]byte{'F', 'C', 'A', 'S', snapshotVersionPending + 1}, raw[5:]...)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("version-%d frame: got %v, want ErrCorruptSnapshot", snapshotVersionPending+1, err)
	}
}

// TestSnapshotDecodeTrailingGarbage: any bytes after the gob stream mean the
// file is damaged or concatenated — the decoder must refuse, not silently
// half-read it.
func TestSnapshotDecodeTrailingGarbage(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"aggregate":  observeAll(t, buildInput(t)).Snapshot(),
		"checkpoint": checkpointFixture(t),
	} {
		valid, err := s.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range [][]byte{{0x00}, []byte("junk"), valid} {
			raw := append(append([]byte{}, valid...), tail...)
			if _, err := DecodeSnapshotBytes(raw); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s + %d trailing bytes: got %v, want ErrCorruptSnapshot", name, len(tail), err)
			}
		}
		// The untouched encoding still decodes.
		if _, err := DecodeSnapshotBytes(valid); err != nil {
			t.Errorf("%s: clean bytes rejected: %v", name, err)
		}
	}
}

// FuzzCheckpointDecode: checkpoint-bearing frames under arbitrary mutation
// must never panic and never yield an untyped error; frames that do decode
// must round-trip stably and finalize without a panic. The corpus in
// testdata/fuzz/FuzzCheckpointDecode adds populated checkpoints, one of them
// listing pending hosts.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed corpus: a valid v1 aggregate, a valid v2 checkpoint, a truncated
	// checkpoint, and a checkpoint with trailing garbage.
	var empty Snapshot
	if raw, err := empty.EncodeBytes(); err == nil {
		f.Add(raw)
	}
	cp := &Snapshot{Checkpoint: &CheckpointState{
		Seed: 7, Shards: 2, Cursors: []uint64{10, 20}, Streamed: 5,
		Robustness: RobustnessState{Failures: map[string]int{"deadline": 1}},
	}}
	if raw, err := cp.EncodeBytes(); err == nil {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(append(append([]byte{}, raw...), 0xff, 0x00))
	}
	cp.Checkpoint.Pending = []simnet.IP{3, 1 << 24, 1<<24 + 9}
	if raw, err := cp.EncodeBytes(); err == nil {
		f.Add(raw)
	}
	f.Add([]byte{'F', 'C', 'A', 'S', 2})
	f.Add([]byte{'F', 'C', 'A', 'S', 3, 0x01})
	f.Add([]byte{'F', 'C', 'A', 'S', 4, 0x01})
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
		// Valid decodes must re-encode and decode to the same snapshot.
		again, err := s.EncodeBytes()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		s2, err := DecodeSnapshotBytes(again)
		if err != nil {
			t.Fatalf("re-encoded bytes rejected: %v", err)
		}
		// gob writes maps in iteration order, so encodings of one state
		// with several map entries differ in byte order; those must
		// decode to equal values instead.
		if a, b := mustEncode(t, s), mustEncode(t, s2); !bytes.Equal(a, b) && !reflect.DeepEqual(decodeState(t, a), decodeState(t, b)) {
			t.Error("snapshot does not round-trip stably")
		}
		finalizeDecoded(s)
	})
}

func mustEncode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	raw, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
