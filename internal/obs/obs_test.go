package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test.counter")
	g := reg.Gauge("test.gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Errorf("gauge = %d, want 0", g.Load())
	}
	if got := reg.Counter("test.counter"); got != c {
		t.Error("Counter is not get-or-create: second lookup returned a new counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive upper bound)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := []uint64{2, 1, 0, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z").Observe(time.Millisecond)
	if !reg.Snapshot().Empty() {
		t.Error("nil registry snapshot is not empty")
	}
}

func TestSnapshotSubAndJSON(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("probes")
	h := reg.Histogram("lat", time.Millisecond, time.Second)
	c.Add(10)
	h.Observe(2 * time.Millisecond)
	prev := reg.Snapshot()
	c.Add(5)
	h.Observe(3 * time.Millisecond)
	cur := reg.Snapshot()

	delta := cur.Sub(prev)
	if delta.Counters["probes"] != 5 {
		t.Errorf("counter delta = %d, want 5", delta.Counters["probes"])
	}
	if delta.Histograms["lat"].Count != 1 {
		t.Errorf("histogram count delta = %d, want 1", delta.Histograms["lat"].Count)
	}

	var buf bytes.Buffer
	if err := cur.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["probes"] != 15 {
		t.Errorf("round-tripped counter = %d, want 15", back.Counters["probes"])
	}
	hs := back.Histograms["lat"]
	if hs.Count != 2 || len(hs.Buckets) != 3 {
		t.Errorf("round-tripped histogram = %+v", hs)
	}
	if hs.Buckets[len(hs.Buckets)-1].LENanos != -1 {
		t.Error("last bucket is not the +Inf bucket")
	}
}

func TestReporterEmitsRates(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("work.items").Add(100)
	reg.Gauge("work.inflight").Set(7)
	var mu sync.Mutex
	var buf bytes.Buffer
	wrote := make(chan struct{}, 1)
	rep := &Reporter{
		Registry: reg,
		Interval: 10 * time.Millisecond,
		W: writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			select {
			case wrote <- struct{}{}:
			default:
			}
			return buf.Write(p)
		}),
	}
	stop := rep.Start(context.Background())
	// Wait for the first tick's line; stop then writes the final one.
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("no progress line within 10s")
	}
	reg.Counter("work.items").Add(50)
	stop()
	stop() // idempotent

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "work.items=150") {
		t.Errorf("final line missing updated counter:\n%s", out)
	}
	if !strings.Contains(out, "work.inflight=7") {
		t.Errorf("line missing gauge:\n%s", out)
	}
	if strings.Count(out, "progress:") < 2 {
		t.Errorf("expected at least two progress lines:\n%s", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServeDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo.counter").Add(42)
	reg.Histogram("demo.lat").Observe(3 * time.Millisecond)
	ds, err := ServeDebug("127.0.0.1:0", "obs_test_demo", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ds.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not a snapshot: %v", err)
	}
	if snap.Counters["demo.counter"] != 42 {
		t.Errorf("/metrics counter = %d, want 42", snap.Counters["demo.counter"])
	}
	if snap.Histograms["demo.lat"].Count != 1 {
		t.Error("/metrics missing histogram")
	}

	vars := string(get("/debug/vars"))
	if !strings.Contains(vars, "obs_test_demo") || !strings.Contains(vars, "demo.counter") {
		t.Errorf("/debug/vars missing published registry:\n%.400s", vars)
	}

	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ does not look like the pprof index")
	}

	// Re-publishing the same name must not panic and must re-point the var.
	reg2 := NewRegistry()
	reg2.Counter("demo.second").Inc()
	Publish("obs_test_demo", reg2)
	if vars := string(get("/debug/vars")); !strings.Contains(vars, "demo.second") {
		t.Error("re-published registry not visible in /debug/vars")
	}
}

func TestGaugeSetMax(t *testing.T) {
	g := NewGauge()
	g.SetMax(5)
	if g.Load() != 5 {
		t.Errorf("gauge = %d, want 5", g.Load())
	}
	g.SetMax(3)
	if g.Load() != 5 {
		t.Errorf("SetMax lowered the high-water mark to %d", g.Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := int64(0); v <= 1000; v++ {
				g.SetMax(v + int64(i))
			}
		}(i)
	}
	wg.Wait()
	if g.Load() != 1007 {
		t.Errorf("concurrent SetMax = %d, want 1007", g.Load())
	}
}
