package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestWriterSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	for i := 0; i < 3; i++ {
		if err := s.Observe(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].IP != "10.1.2.3" {
		t.Fatalf("round trip: %d records", len(recs))
	}
}

type closeTracker struct {
	strings.Builder
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return nil
}

func TestWriterSinkClosesCloser(t *testing.T) {
	var ct closeTracker
	s := NewWriterSink(&ct)
	if err := s.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !ct.closed {
		t.Error("underlying closer not closed")
	}
	if !strings.Contains(ct.String(), `"10.1.2.3"`) {
		t.Error("buffer not flushed before close")
	}
}

func TestCollector(t *testing.T) {
	var coll Collector
	for i := 0; i < 5; i++ {
		if err := coll.Observe(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if len(coll.Records) != 5 {
		t.Errorf("collector holds %d records, want 5", len(coll.Records))
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
}

type failSink struct{ err error }

func (f failSink) Observe(*HostRecord) error { return f.err }
func (f failSink) Close() error              { return f.err }

func TestTeeFanOutAndError(t *testing.T) {
	var a, b Collector
	tee := Tee(&a, &b)
	if err := tee.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != 1 || len(b.Records) != 1 {
		t.Errorf("fan-out: %d / %d", len(a.Records), len(b.Records))
	}

	boom := errors.New("boom")
	tee = Tee(&a, failSink{boom}, &b)
	if err := tee.Observe(sampleRecord()); !errors.Is(err, boom) {
		t.Errorf("Observe error = %v", err)
	}
	if err := tee.Close(); !errors.Is(err, boom) {
		t.Errorf("Close error = %v", err)
	}

	// Single-sink Tee collapses to the sink itself.
	if got := Tee(&a); got != Sink(&a) {
		t.Error("Tee of one sink should return it unchanged")
	}
}
