package zmap

import (
	"context"
	"sync"
	"sync/atomic"
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
// property that lets a census checkpoint be one integer.
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

// TestScannerCancelResumeCoversExactlyOnce: a scan cancelled mid-walk and a
// second scan resumed from the cursor it committed together probe every
// address exactly once — no gap, no overlap. This is the kill-and-resume
// foundation. Responsive hosts are counted where the scanner hands them
// over, through OnFound: a cancelled worker may drop its batch instead of
// sending it downstream.
func TestScannerCancelResumeCoversExactlyOnce(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 4000
	hosts := &sparseHosts{base: base, every: 7, size: size}
	nw := simnet.NewNetwork(hosts)
	var mu sync.Mutex
	seen := make(map[simnet.IP]int)
	onFound := func(batch []Result) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range batch {
			seen[r.IP]++
		}
	}

	// Rate-limit the first scan so the cancel lands mid-walk
	// deterministically: at 200 offsets/s the full walk needs 20s, and
	// the scan below is cancelled once its first offsets are out.
	s1, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		Workers: 4, RatePerSec: 200, OnFound: onFound,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s1.Collect(ctx); err != context.Canceled {
			t.Errorf("cancelled scan returned %v, want context.Canceled", err)
		}
	}()
	waitEmitted(t, s1, 1, done)
	cancel()
	<-done

	cursor := s1.Cursor()
	span := mustSpan(t, size, 13)
	if cursor == 0 || cursor >= span {
		t.Fatalf("cancel cursor %d not mid-walk (span %d)", cursor, span)
	}
	// Everything emitted is accounted once RunBatches returns: each
	// offset is dead or went through OnFound.
	mu.Lock()
	found := uint64(len(seen))
	mu.Unlock()
	if acc := s1.Dead() + found; acc != s1.Emitted() {
		t.Fatalf("accounting: dead %d + found %d != emitted %d", s1.Dead(), found, s1.Emitted())
	}

	s2, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		Workers: 4, StartCursor: cursor, OnFound: onFound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := size/7 + 1
	if len(seen) != want {
		t.Errorf("cancel+resume found %d distinct hosts, want %d", len(seen), want)
	}
	for ip, n := range seen {
		if n != 1 {
			t.Errorf("%v found by both halves (%d times)", ip, n)
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

// mustSpan returns the group-step span of the walk over size.
func mustSpan(t *testing.T, size, seed uint64) uint64 {
	t.Helper()
	pm, err := NewPermutation(size, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pm.Span()
}

// TestScannerSettlesWithoutTheConsumer: a paused scan settles on probing
// alone. With nobody reading the results, every worker ends up blocked
// sending its batch on, yet Pause parks the producer and Settle returns:
// every offset behind the committed cursor is counted dead or responsive,
// and every responsive address has been through OnFound. Resumed and
// drained, the scan still finds each host exactly once.
func TestScannerSettlesWithoutTheConsumer(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 20000
	hosts := &sparseHosts{base: base, every: 3, size: size}
	var found atomic.Uint64
	s, err := NewScanner(Config{
		Network: simnet.NewNetwork(hosts), Base: base, Size: size, Port: 21, Seed: 5,
		Workers: 4,
		OnFound: func(batch []Result) { found.Add(uint64(len(batch))) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []Result)
	scanned := make(chan error, 1)
	go func() { scanned <- s.RunBatches(context.Background(), out) }()
	// One batch is taken, so four workers and the producer fill up
	// behind a consumer that reads nothing more.
	first := <-out
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	paused := make(chan struct{})
	go func() {
		s.Pause()
		close(paused)
	}()
	select {
	case <-paused:
	case <-ctx.Done():
		t.Fatal("Pause waited on the consumer")
	}
	if !s.Settle(ctx) {
		t.Fatal("Settle waited on the consumer")
	}
	emitted, dead := s.Emitted(), s.Dead()
	if dead+found.Load() != emitted || emitted == 0 || emitted == size {
		t.Fatalf("settled with %d dead and %d found of %d emitted", dead, found.Load(), emitted)
	}
	if got := s.Stats.Responded.Load(); got != found.Load() {
		t.Errorf("responded %d, OnFound saw %d", got, found.Load())
	}
	if n := uint64(len(first)); n > found.Load() {
		t.Errorf("the consumer got %d hosts, OnFound saw %d", n, found.Load())
	}

	s.Resume()
	seen := map[simnet.IP]int{}
	for _, batch := range append([][]Result{first}, drainBatches(out)...) {
		for _, r := range batch {
			seen[r.IP]++
		}
	}
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if want := (size + 2) / 3; len(seen) != want || found.Load() != uint64(want) {
		t.Errorf("found %d distinct hosts, OnFound saw %d, want %d", len(seen), found.Load(), want)
	}
	for ip, n := range seen {
		if n != 1 {
			t.Errorf("%v delivered %d times", ip, n)
		}
	}
}

// drainBatches reads out until the scan closes it.
func drainBatches(out <-chan []Result) [][]Result {
	var all [][]Result
	for batch := range out {
		all = append(all, batch)
	}
	return all
}
