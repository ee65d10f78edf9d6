package zmap

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/simnet"
)

// collectRemaining drains a permutation into a slice.
func collectRemaining(pm *Permutation) []uint64 {
	var out []uint64
	for {
		v, ok := pm.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// TestPermutationSeekContinuesWalk: Seek(Cursor()) on a fresh permutation
// reproduces the remainder of the original walk exactly — the cyclic-group
// property that lets a census checkpoint be one integer per shard.
func TestPermutationSeekContinuesWalk(t *testing.T) {
	const n, seed = 5000, 42
	for _, stop := range []int{0, 1, 7, 100, 2499} {
		pm, err := NewPermutation(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stop; i++ {
			if _, ok := pm.Next(); !ok {
				t.Fatalf("walk exhausted at %d", i)
			}
		}
		cursor := pm.Cursor()
		want := collectRemaining(pm)

		fresh, err := NewPermutation(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Seek(cursor); err != nil {
			t.Fatalf("Seek(%d): %v", cursor, err)
		}
		if got := fresh.Cursor(); got != cursor {
			t.Fatalf("after Seek(%d), Cursor()=%d", cursor, got)
		}
		got := collectRemaining(fresh)
		if len(got) != len(want) {
			t.Fatalf("stop=%d: resumed walk emits %d values, want %d", stop, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stop=%d: resumed walk diverges at %d: %d != %d", stop, i, got[i], want[i])
			}
		}
	}
}

// TestShardedPermutationSeek: the same resume property holds on every shard
// of a strided walk.
func TestShardedPermutationSeek(t *testing.T) {
	const n, seed, shards = 3000, 9, 4
	for shard := 0; shard < shards; shard++ {
		pm, err := NewShardedPermutation(n, seed, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 123; i++ {
			if _, ok := pm.Next(); !ok {
				break
			}
		}
		cursor := pm.Cursor()
		want := collectRemaining(pm)

		fresh, err := NewShardedPermutation(n, seed, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Seek(cursor); err != nil {
			t.Fatal(err)
		}
		got := collectRemaining(fresh)
		if len(got) != len(want) {
			t.Fatalf("shard %d: resumed walk emits %d values, want %d", shard, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d: resumed walk diverges at %d", shard, i)
			}
		}
	}
}

// TestPermutationSeekBounds: Seek(0) is Reset, Seek(Span()) exhausts the
// walk, and seeking beyond the span is an error.
func TestPermutationSeekBounds(t *testing.T) {
	pm, err := NewPermutation(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := pm.Next()
	if err := pm.Seek(0); err != nil {
		t.Fatal(err)
	}
	if again, _ := pm.Next(); again != first {
		t.Errorf("Seek(0) then Next = %d, want first element %d", again, first)
	}
	if err := pm.Seek(pm.Span()); err != nil {
		t.Fatal(err)
	}
	if v, ok := pm.Next(); ok {
		t.Errorf("Seek(Span) should exhaust the walk, got %d", v)
	}
	if err := pm.Seek(pm.Span() + 1); err == nil {
		t.Error("Seek beyond span succeeded")
	}
}

// TestScannerHaltResumeCoversExactlyOnce: a scan halted mid-walk and a
// second scan resumed from its committed cursor together probe every address
// exactly once — no gap, no overlap. This is the kill-and-resume foundation.
func TestScannerHaltResumeCoversExactlyOnce(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 4000
	hosts := &sparseHosts{base: base, every: 7, size: size}
	nw := simnet.NewNetwork(hosts)

	// Rate-limit the first scan so Pause lands mid-walk deterministically:
	// at 200 offsets/s the full walk needs 20s, and the scan below is
	// paused once its first offsets are out.
	s1, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		Workers: 4, RatePerSec: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var firstHalf []Result
	go func() {
		defer close(done)
		var err error
		firstHalf, err = s1.Collect(context.Background())
		if err != nil {
			t.Errorf("halted scan returned error: %v", err)
		}
	}()
	waitEmitted(t, s1, 1, done)
	s1.Pause()
	cursor := s1.Cursor()
	s1.Halt()
	<-done

	span := mustSpan(t, size, 13)
	if cursor == 0 || cursor >= span {
		t.Fatalf("halt cursor %d not mid-walk (span %d)", cursor, span)
	}
	if got := s1.Cursor(); got != cursor {
		t.Fatalf("cursor moved after halt: %d != %d", got, cursor)
	}
	// Everything emitted must be accounted: found + dead == emitted once
	// RunBatches returns.
	if acc := s1.Dead() + uint64(len(firstHalf)); acc != s1.Emitted() {
		t.Fatalf("accounting: dead %d + found %d != emitted %d",
			s1.Dead(), len(firstHalf), s1.Emitted())
	}

	s2, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		Workers: 4, StartCursor: cursor,
	})
	if err != nil {
		t.Fatal(err)
	}
	secondHalf, err := s2.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[simnet.IP]int)
	for _, r := range firstHalf {
		seen[r.IP]++
	}
	for _, r := range secondHalf {
		seen[r.IP]++
	}
	want := size/7 + 1
	if len(seen) != want {
		t.Errorf("halt+resume found %d distinct hosts, want %d", len(seen), want)
	}
	for ip, n := range seen {
		if n != 1 {
			t.Errorf("%v probed by both halves (%d times)", ip, n)
		}
	}
	// Probe volume must split exactly too: the two halves together probe
	// each address once.
	if total := s1.Stats.Probed.Load() + s2.Stats.Probed.Load(); total != size {
		t.Errorf("halves probed %d addresses total, want %d", total, size)
	}
}

// TestScannerPauseResumeCompletes: pausing and resuming mid-scan perturbs
// nothing — the scan still covers every address exactly once.
func TestScannerPauseResumeCompletes(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 3000
	hosts := &sparseHosts{base: base, every: 5, size: size}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 21,
		Workers: 4, RatePerSec: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var results []Result
	go func() {
		defer close(done)
		var err error
		results, err = s.Collect(context.Background())
		if err != nil {
			t.Errorf("scan error: %v", err)
		}
	}()
	for i := 0; i < 3; i++ {
		waitEmitted(t, s, s.Emitted()+1, done)
		s.Pause()
		// While parked the emitted count is frozen. This checks that
		// nothing happens, so it has no event to wait on: the sleep is
		// the window the producer would have to move in.
		e1 := s.Emitted()
		time.Sleep(5 * time.Millisecond)
		if e2 := s.Emitted(); e2 != e1 {
			t.Errorf("emitted moved while paused: %d -> %d", e1, e2)
		}
		s.Resume()
	}
	<-done
	if want := (size + 4) / 5; len(results) != want {
		t.Errorf("pause/resume scan found %d hosts, want %d", len(results), want)
	}
	if got := s.Stats.Probed.Load(); got != size {
		t.Errorf("probed %d, want %d", got, size)
	}
	if got, want := s.Cursor(), mustSpan(t, size, 21); got != want {
		t.Errorf("finished cursor %d, want span %d", got, want)
	}
}

// waitEmitted waits until the scanner has handed out at least n offsets or
// its scan has finished (done closed), polling the counter: the producer
// fires no event per batch a test could wait on.
func waitEmitted(t *testing.T, s *Scanner, n uint64, done <-chan struct{}) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for s.Emitted() < n {
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatalf("scanner emitted %d offsets in 10s, want %d", s.Emitted(), n)
		case <-tick.C:
		}
	}
}

// TestScannerPauseAfterFinish: Pause on a completed scan must not block.
func TestScannerPauseAfterFinish(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 9, size: 500}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{Network: nw, Base: base, Size: 500, Port: 21, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		s.Pause()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("Pause blocked on a finished scan")
	}
}

// mustSpan returns the group-step span of the unsharded walk over size.
func mustSpan(t *testing.T, size, seed uint64) uint64 {
	t.Helper()
	pm, err := NewPermutation(size, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pm.Span()
}
