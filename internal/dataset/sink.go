package dataset

import "io"

// Sink consumes host records as a census emits them, one at a time. This is
// the streaming counterpart of a record slice: the pipeline pushes each
// record through a sink chain the moment the enumerator finishes a host, so
// nothing forces the whole dataset to stay resident.
//
// Observe is always called from a single goroutine at a time; sinks need no
// internal locking. Close flushes buffered state and releases resources;
// after Close no further Observe calls arrive.
type Sink interface {
	Observe(rec *HostRecord) error
	Close() error
}

// WriterSink streams records to an io.Writer as JSONL. If the underlying
// writer is an io.Closer (a file), Close closes it after flushing.
type WriterSink struct {
	w *Writer
	c io.Closer
}

// NewWriterSink wraps w for streaming persistence.
func NewWriterSink(w io.Writer) *WriterSink {
	s := &WriterSink{w: NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Observe appends one record to the JSONL stream.
func (s *WriterSink) Observe(rec *HostRecord) error { return s.w.Write(rec) }

// Count returns the number of records written so far.
func (s *WriterSink) Count() int { return s.w.Count() }

// Flush pushes buffered records through to the underlying writer without
// closing it. A census's drain calls this between two records when it takes
// its half of a checkpoint cut, so the on-disk ledger holds every record
// the checkpoint counts. Only safe when no Observe is in flight.
func (s *WriterSink) Flush() error { return s.w.Flush() }

// Close flushes the buffer and closes the underlying writer when it is
// closable.
func (s *WriterSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Collector retains every record in memory: the sink for tests and examples
// that want individual hosts. A census itself never retains records.
type Collector struct {
	Records []*HostRecord
}

// Observe appends the record.
func (c *Collector) Observe(rec *HostRecord) error {
	c.Records = append(c.Records, rec)
	return nil
}

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Tee fans every record out to each sink in order. Observe stops at the
// first failing sink; Close closes every sink and reports the first error.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return multiSink(sinks)
}

type multiSink []Sink

func (m multiSink) Observe(rec *HostRecord) error {
	for _, s := range m {
		if err := s.Observe(rec); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
