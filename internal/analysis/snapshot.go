package analysis

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
)

// Snapshot is an aggregator's state as plain data: the observed-record
// count plus every accumulator, with no pointers into the AS database or
// the world. The accumulators are their own serialized form: gob matches
// fields by name, so an accumulator's exported field names are the file
// format, and renaming one breaks every file written before.
//
// A census's stored state is its JSONL ledger, and every table is a fold
// of it. A checkpoint is a position in that ledger: its Checkpoint says how
// many records the ledger held, and its accumulators are empty, because a
// resumed census rebuilds them by folding those records again. A
// populated Snapshot is an aggregator's state finalized in place (see
// ReadOnly), or a file written before checkpoints became positions.
type Snapshot struct {
	Observed        int
	Funnel          FunnelAcc
	Classification  ClassificationAcc
	ASConcentration ASConcentrationAcc
	Devices         DevicesAcc
	TopASes         TopASesAcc
	Exposure        ExposureAcc
	CVEs            CVEsAcc
	Malicious       MaliciousAcc
	PortBounce      PortBounceAcc
	FTPS            FTPSAcc
	// Unexpected rides the same version-1 frame: gob tolerates fields
	// absent from older streams, so pre-funnel snapshots decode with an
	// empty ledger.
	Unexpected UnexpectedAcc

	// Checkpoint, when non-nil, makes the snapshot a resumable census
	// position: the scan cursor, the ledger length, the hosts in flight,
	// and the robustness counters a resumed run checks its re-folded
	// ledger against. Snapshots carrying it are written as frame version
	// 2, or 3 when hosts are pending; plain aggregates stay version 1 so
	// older readers keep decoding them.
	Checkpoint *CheckpointState
}

// CheckpointState is a census position: everything a resumed run needs
// beyond the ledger it re-folds. The zmap cyclic-group walk makes the scan
// position one integer (see zmap.Permutation.Seek), so the whole scan
// state is one cursor plus the bounded list of hosts in flight at it.
type CheckpointState struct {
	// Seed, Epoch, Scale, Shards, and ScanSize identify the world and
	// pipeline shape this checkpoint belongs to; a resume against any
	// other configuration must be refused. A census writes Shards 1; the
	// field keeps its name because gob matches fields by name.
	Seed     uint64
	Epoch    uint64
	Scale    int
	Shards   int
	ScanSize uint64
	// ConfigDigest fingerprints the remaining census knobs (loss, retries,
	// identification, enumeration budgets …) that change what a run
	// observes. Resume validates it so a checkpoint cannot silently
	// continue under different measurement semantics.
	ConfigDigest uint64
	// Cursors holds the permutation position (group steps consumed), one
	// entry per shard: a census writes exactly one.
	Cursors []uint64
	// Streamed counts the records in the JSONL ledger at checkpoint time;
	// a resume re-folds exactly this many records and appends after them,
	// so the concatenated ledger carries no duplicates.
	Streamed int
	// Probed/Responded carry the discovery counters folded so far.
	Probed    uint64
	Responded uint64
	// Truncated records whether the checkpoint was written on a truncated
	// exit (versus a periodic cut).
	Truncated bool
	// Robustness carries the degradation ledger accumulated so far: a
	// resume refuses a ledger prefix that re-folds to other counters.
	Robustness RobustnessState
	// Pending lists, in ascending order, the responsive hosts found
	// behind the cursor whose records were not yet in the ledger: a
	// periodic checkpoint cuts the pipeline instead of draining it, and a
	// resume enumerates these hosts first. Every responsive host is in
	// the ledger or here, so len(Pending) == Responded − Streamed. A
	// truncation checkpoint drains first and lists none.
	Pending []simnet.IP
}

// RobustnessState is the census robustness ledger: the per-record fault
// and degradation counters, summed. It is plain data, so a checkpoint
// carries it as is, and it is a dataset.Sink: the census puts it last in
// its one sink chain, so it counts only records the whole chain accepted
// and Records always equals the aggregator's Observed count, even when a
// sink fails mid-stream. Like every sink it takes one Observe at a time.
type RobustnessState struct {
	// Records counts the records folded into these counters.
	Records int
	// Partial counts records flagged incomplete by the degradation
	// layer; Failures breaks them (and outright failures) down by class.
	Partial int
	// Terminated counts control connections that ended early — server
	// request limits and transport faults both land here.
	Terminated int
	// Truncated counts listings cut by the request cap.
	Truncated int
	// SkippedDirs, Retries, and DataBytes sum the per-record counters.
	SkippedDirs int
	Retries     int
	DataBytes   int64
	Failures    map[string]int
}

// Observe folds one record's counters in.
func (r *RobustnessState) Observe(rec *dataset.HostRecord) error {
	r.Records++
	if rec.Partial {
		r.Partial++
	}
	if rec.ConnTerminated {
		r.Terminated++
	}
	if rec.ListingTruncated {
		r.Truncated++
	}
	r.SkippedDirs += rec.SkippedDirs
	r.Retries += rec.Retries
	r.DataBytes += rec.DataBytes
	if rec.FailureClass != "" {
		if r.Failures == nil {
			r.Failures = make(map[string]int)
		}
		r.Failures[rec.FailureClass]++
	}
	return nil
}

// Close implements dataset.Sink; the ledger holds no resources.
func (r *RobustnessState) Close() error { return nil }

// snapshotMagic and the version byte frame the serialized form so corrupt
// or foreign bytes are rejected before gob sees them. Version 1 is a plain
// aggregate; version 2 adds the checkpoint fields; version 3 is a
// checkpoint with pending hosts. Encode picks the lowest version that
// represents the snapshot, so aggregates remain readable by version-1
// decoders and a checkpoint without pending hosts by version-2 ones,
// while a version-2 reader refuses a pending list instead of losing it.
var snapshotMagic = [4]byte{'F', 'C', 'A', 'S'}

const (
	snapshotVersion           = 1
	snapshotVersionCheckpoint = 2
	snapshotVersionPending    = 3
)

// version is the lowest frame version that represents s.
func (s *Snapshot) version() byte {
	switch {
	case s.Checkpoint == nil:
		return snapshotVersion
	case len(s.Checkpoint.Pending) == 0:
		return snapshotVersionCheckpoint
	}
	return snapshotVersionPending
}

// ErrCorruptSnapshot marks bytes that do not decode as a snapshot — wrong
// magic, unknown version, or a gob stream damaged in transit. Callers
// detect it with errors.Is.
var ErrCorruptSnapshot = errors.New("analysis: corrupt snapshot")

// Snapshot returns a shallow view of the aggregator's state: the returned
// struct is its own, but its maps are the aggregator's. It is valid while
// nothing observes; the next Observe changes what it holds.
func (a *Aggregator) Snapshot() *Snapshot {
	s := a.s
	return &s
}

// ReadOnly wraps a snapshot in an aggregator for its finalize methods only
// (Funnel, Classification, ...), so a decoded file renders its tables. The
// aggregator shares s's maps and resolves nothing, so it must not Observe.
func ReadOnly(s *Snapshot) *Aggregator {
	a := &Aggregator{s: *s}
	a.s.Checkpoint = nil
	return a
}

// Encode writes the snapshot's compact binary form: a fixed header (magic
// plus version) followed by a gob stream. Snapshots without checkpoint
// state are framed as version 1, byte-compatible with earlier readers;
// checkpoints are framed as version 2, or 3 when they list pending hosts.
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(s.version()); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("analysis: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// EncodeBytes returns the snapshot's serialized form.
func (s *Snapshot) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reads one serialized snapshot. Bytes that do not frame and
// decode cleanly yield an error wrapping ErrCorruptSnapshot; decoding never
// panics on hostile input.
func DecodeSnapshot(r io.Reader) (s *Snapshot, err error) {
	// gob decoding of damaged streams can panic in pathological cases;
	// a corrupt checkpoint must surface as a typed error instead.
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("%w: decode panic: %v", ErrCorruptSnapshot, p)
		}
	}()
	// Buffer the stream ourselves: bufio.Reader satisfies io.ByteReader,
	// so gob reads exactly its message bytes and never overbuffers —
	// which is what makes the trailing-byte check below reliable.
	br := bufio.NewReader(r)
	var header [5]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, err)
	}
	if !bytes.Equal(header[:4], snapshotMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, header[:4])
	}
	version := header[4]
	if version < snapshotVersion || version > snapshotVersionPending {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptSnapshot, version)
	}
	s = new(Snapshot)
	if err := gob.NewDecoder(br).Decode(s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	// A frame must not smuggle fields past the readers of its version —
	// checkpoint state in version 1, pending hosts in version 2 — and no
	// frame may carry trailing bytes: a concatenated or damaged checkpoint
	// file is corrupt, not silently half-read.
	if need := s.version(); need > version {
		return nil, fmt.Errorf("%w: version-%d frame carries version-%d state", ErrCorruptSnapshot, version, need)
	}
	var trailing [1]byte
	if _, err := io.ReadFull(br, trailing[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot", ErrCorruptSnapshot)
	}
	return s, nil
}

// DecodeSnapshotBytes decodes a snapshot from its serialized form.
func DecodeSnapshotBytes(b []byte) (*Snapshot, error) {
	return DecodeSnapshot(bytes.NewReader(b))
}
