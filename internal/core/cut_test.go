package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// syncBuffer is a ledger file the drain appends to while a checkpoint's
// Write copies it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// snapshot copies the bytes written so far.
func (b *syncBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// capturedCut is one written checkpoint with the ledger as it stood when
// Write ran, which is what a SIGKILL right after the write leaves on disk.
type capturedCut struct {
	cp     *analysis.CheckpointState
	ledger []byte
}

// capturePolicy checkpoints every interval, encoding and decoding each
// checkpoint as the CLI's file round trip does, and keeps it with a copy of
// the ledger; onWrite, when set, sees each one as it is written.
func capturePolicy(t *testing.T, every time.Duration, ledger *syncBuffer, onWrite func(capturedCut)) (*CheckpointPolicy, func() []capturedCut) {
	var mu sync.Mutex
	var cuts []capturedCut
	policy := &CheckpointPolicy{
		Every: every,
		Write: func(s *analysis.Snapshot) error {
			raw, err := s.EncodeBytes()
			if err != nil {
				return err
			}
			snap, err := analysis.DecodeSnapshotBytes(raw)
			if err != nil {
				return err
			}
			cut := capturedCut{cp: snap.Checkpoint, ledger: ledger.snapshot()}
			mu.Lock()
			cuts = append(cuts, cut)
			mu.Unlock()
			if onWrite != nil {
				onWrite(cut)
			}
			return nil
		},
	}
	return policy, func() []capturedCut {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(cuts)
	}
}

// resumeFrom resumes cfg's census from a captured checkpoint: the ledger is
// trimmed to the checkpoint's records, as ftpcensus -resume trims its file,
// re-folded and appended to. It returns the full report, the finished
// ledger's sorted lines and the result.
func resumeFrom(t *testing.T, cfg CensusConfig, cut capturedCut) (string, []string, *Result) {
	t.Helper()
	size, err := dataset.PrefixSize(bytes.NewReader(cut.ledger), cut.cp.Streamed)
	if err != nil {
		t.Fatalf("ledger copied at the write holds fewer records than the checkpoint's %d: %v", cut.cp.Streamed, err)
	}
	prefix := cut.ledger[:size]
	finished := bytes.NewBuffer(bytes.Clone(prefix))
	cfg.Resume = &Resume{Checkpoint: cut.cp, Ledger: bytes.NewReader(prefix)}
	cfg.StreamTo = dataset.NewWriterSink(finished)
	c, err := NewCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resume from %d records and %d pending hosts: %v", cut.cp.Streamed, len(cut.cp.Pending), err)
	}
	return res.ComputeTables().RenderFull(), sortedLines(t, finished.Bytes()), res
}

// gatedWorld serves the world's hosts, except that the first FTP session
// dialed stalls after its banner until gate closes: a host that stays in
// flight for as long as a test needs.
type gatedWorld struct {
	*worldgen.World
	gate  chan struct{}
	once  sync.Once
	gated atomic.Uint32 // the stalled host's address, once dialed
}

func (g *gatedWorld) Lookup(ip simnet.IP) simnet.Host {
	h := g.World.Lookup(ip)
	if h == nil {
		return nil
	}
	return gatedHost{Host: h, g: g, ip: ip}
}

type gatedHost struct {
	simnet.Host
	g  *gatedWorld
	ip simnet.IP
}

func (h gatedHost) Handler(port uint16) simnet.Handler {
	inner := h.Host.Handler(port)
	first := false
	if inner != nil {
		h.g.once.Do(func() { first = true })
	}
	if !first {
		return inner
	}
	h.g.gated.Store(uint32(h.ip))
	return simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
		inner.ServeConn(nw, &gatedConn{Conn: conn, gate: h.g.gate})
	})
}

// gatedConn lets the server's first write (the banner) through and holds
// every later one until the gate closes.
type gatedConn struct {
	net.Conn
	gate   <-chan struct{}
	writes int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > 1 {
		<-c.gate
	}
	return c.Conn.Write(p)
}

// TestPeriodicCheckpointDoesNotDrain: a periodic checkpoint is a cut, not a
// drain. One host's session stalls mid-way, and a checkpoint is still
// written while it stalls, listing that host as pending and leaving its
// record out of the counted ledger. Resuming from that checkpoint
// enumerates the host again and finishes with the uninterrupted run's
// report and ledger; a resumed run killed at its first record writes a
// truncation checkpoint, the same kind of cut, that resumes to the same end.
func TestPeriodicCheckpointDoesNotDrain(t *testing.T) {
	cfg := resumeConfig(23, 32768, false)
	var ref bytes.Buffer
	refCfg := cfg
	refCfg.StreamTo = dataset.NewWriterSink(&ref)
	refCensus, err := NewCensus(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := refCensus.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantLedger := refRes.ComputeTables().RenderFull(), sortedLines(t, ref.Bytes())

	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	defer open()
	var (
		gw         *gatedWorld
		whileGated atomic.Pointer[capturedCut]
	)
	ledger := &syncBuffer{}
	runCfg := cfg
	runCfg.StreamTo = dataset.NewWriterSink(ledger)
	runCfg.Checkpoint, _ = capturePolicy(t, 10*time.Millisecond, ledger, func(cut capturedCut) {
		ip := simnet.IP(gw.gated.Load())
		if ip != 0 && slices.Contains(cut.cp.Pending, ip) && whileGated.CompareAndSwap(nil, &cut) {
			open()
		}
	})
	c, err := NewCensus(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	gw = &gatedWorld{World: c.World, gate: gate}
	c.Network.SetProvider(gw)
	// Every wait is bounded: without a cut the gate opens after 30 s and
	// the test fails below instead of hanging.
	bound := time.AfterFunc(30*time.Second, open)
	defer bound.Stop()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cut := whileGated.Load()
	if cut == nil {
		t.Fatalf("no periodic checkpoint listed the stalled host %s while its session stalled", simnet.IP(gw.gated.Load()))
	}
	if got := res.ComputeTables().RenderFull(); got != wantReport {
		t.Error("a run with periodic cuts diverges from the uninterrupted run")
	}
	cp := cut.cp
	if cp.Truncated {
		t.Error("periodic checkpoint marked as a truncation write")
	}
	if uint64(len(cp.Pending)) != cp.Responded-uint64(cp.Streamed) {
		t.Errorf("%d pending hosts, but %d responded and %d streamed", len(cp.Pending), cp.Responded, cp.Streamed)
	}
	stalled := simnet.IP(gw.gated.Load()).String()
	size, err := dataset.PrefixSize(bytes.NewReader(cut.ledger), cp.Streamed)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := dataset.ReadAll(bytes.NewReader(cut.ledger[:size]))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range counted {
		if rec.IP == stalled {
			t.Fatalf("the stalled host %s is both pending and in the counted ledger", stalled)
		}
	}

	// Resume from the cut, and kill the resumed run at its first record.
	killed := &syncBuffer{}
	killed.Write(cut.ledger[:size])
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.Resume = &Resume{Checkpoint: cp, Ledger: bytes.NewReader(cut.ledger[:size])}
	killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(killed), n: 1, cancel: cancel}
	var takeCuts func() []capturedCut
	killCfg.Checkpoint, takeCuts = capturePolicy(t, 0, killed, nil)
	kc, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := kc.Run(ctx); err != nil || !res.Truncated {
		t.Fatalf("killed resume: err=%v truncated=%v", err, res != nil && res.Truncated)
	}
	cuts := takeCuts()
	if len(cuts) != 1 || !cuts[0].cp.Truncated {
		t.Fatalf("killed resume wrote %d checkpoints, want one truncation checkpoint", len(cuts))
	}
	trunc := cuts[0].cp
	if uint64(len(trunc.Pending)) != trunc.Responded-uint64(trunc.Streamed) {
		t.Errorf("truncation checkpoint: %d pending, but %d responded and %d streamed", len(trunc.Pending), trunc.Responded, trunc.Streamed)
	}

	for name, from := range map[string]capturedCut{"the stalled cut": *cut, "the killed resume": cuts[0]} {
		report, lines, _ := resumeFrom(t, cfg, from)
		if report != wantReport {
			t.Errorf("resumed from %s: report diverges from the uninterrupted run", name)
		}
		if !slices.Equal(lines, wantLedger) {
			t.Errorf("resumed from %s: ledger of %d records, want the uninterrupted %d", name, len(lines), len(wantLedger))
		}
	}
}

// TestKillAndResumeFromEveryPeriodicCheckpoint: the SIGKILL story. A run
// killed without warning resumes from its last periodic checkpoint and the
// ledger bytes on disk at that moment, pending hosts included. Each
// periodic checkpoint of a run stands in for the last one before a kill:
// resuming from any of them gives the uninterrupted run's full report,
// sorted ledger and robustness counters. Swept over seeds, benign and
// hostile worlds, and default and 4× workers.
func TestKillAndResumeFromEveryPeriodicCheckpoint(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, hostile := range []bool{false, true} {
			for _, mult := range workerScales {
				world := "benign"
				if hostile {
					world = "hostile"
				}
				t.Run(fmt.Sprintf("seed%d/%s/%dx-workers", seed, world, mult), func(t *testing.T) {
					// The hostile runs spend their tail waiting on
					// slow-drip hosts, which overlaps.
					t.Parallel()
					checkEveryPeriodicCheckpoint(t, withWorkers(resumeConfig(seed, 65536, hostile), mult))
				})
			}
		}
	}
}

func checkEveryPeriodicCheckpoint(t *testing.T, cfg CensusConfig) {
	var ref bytes.Buffer
	refCfg := cfg
	refCfg.StreamTo = dataset.NewWriterSink(&ref)
	c, err := NewCensus(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantLedger := want.ComputeTables().RenderFull(), sortedLines(t, ref.Bytes())

	// Pace the ~56k-address walk over about 0.3 s, so the ticker cuts
	// the run a few times while hosts are in flight.
	ledger := &syncBuffer{}
	runCfg := cfg
	runCfg.ScanRate = 200_000
	runCfg.StreamTo = dataset.NewWriterSink(ledger)
	var takeCuts func() []capturedCut
	runCfg.Checkpoint, takeCuts = capturePolicy(t, 60*time.Millisecond, ledger, nil)
	c, err = NewCensus(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cuts := takeCuts()
	if len(cuts) == 0 {
		t.Fatal("no periodic checkpoint was written")
	}
	// While a slow host finishes the run, the ticker writes the same
	// position again and again. The ledger only grows, so equal positions
	// resume from equal bytes: each position is resumed once.
	seen := map[string]bool{}
	carried := 0
	for i, cut := range cuts {
		cp := cut.cp
		if uint64(len(cp.Pending)) != cp.Responded-uint64(cp.Streamed) {
			t.Fatalf("checkpoint %d: %d pending hosts, but %d responded and %d streamed", i, len(cp.Pending), cp.Responded, cp.Streamed)
		}
		position := fmt.Sprint(cp.Cursors, cp.Streamed, cp.Pending)
		if seen[position] {
			continue
		}
		seen[position] = true
		carried += len(cp.Pending)
		report, lines, res := resumeFrom(t, cfg, cut)
		if report != wantReport {
			t.Errorf("checkpoint %d (%d records, %d pending): resumed report diverges from the uninterrupted run", i, cp.Streamed, len(cp.Pending))
		}
		if !slices.Equal(lines, wantLedger) {
			t.Errorf("checkpoint %d (%d records, %d pending): resumed ledger of %d records, want the uninterrupted %d", i, cp.Streamed, len(cp.Pending), len(lines), len(wantLedger))
		}
		if !reflect.DeepEqual(res.Robustness, want.Robustness) {
			t.Errorf("checkpoint %d: resumed robustness %+v, want %+v", i, res.Robustness, want.Robustness)
		}
	}
	if carried == 0 {
		t.Errorf("none of %d periodic checkpoints carried a pending host: the sweep resumed no cut", len(cuts))
	}
}
