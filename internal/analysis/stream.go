package analysis

import (
	"ftpcloud/internal/asdb"
	"ftpcloud/internal/dataset"
)

// Aggregator folds records into every analysis accumulator in a single
// pass. It implements dataset.Sink, so the census pipeline feeds it
// directly from the enumerator fleet: each record is derived (classified,
// AS-resolved, HTTP-joined) exactly once while it is hot, folded into all
// eleven aggregates, and then released — the aggregator retains no record
// or listing memory, only O(aggregate state).
//
// Observe follows the Sink contract: one goroutine at a time. The finalize
// methods (Funnel, Classification, ...) are pure and may be called any
// number of times, concurrently, once observation has stopped.
type Aggregator struct {
	d deriver
	// rec is the Record being folded, reused so deriving a record does
	// not allocate; it is cleared after each fold so it pins no host.
	rec Record
	// s is the aggregator's whole state, the observed count and every
	// accumulator, in the form an FCAS file stores it. Its Checkpoint
	// stays nil.
	s Snapshot
}

// NewAggregator builds an aggregator resolving ASes against db and the
// HTTP join through the given hook (nil for no join). The hook is invoked
// at most once per record, from the observing goroutine.
func NewAggregator(db *asdb.DB, http func(*Record) (HTTPInfo, bool)) *Aggregator {
	return &Aggregator{d: deriver{db: db, http: http}}
}

// Observe folds one record into every accumulator. Derivation is eager:
// classification, AS resolution, and the HTTP join run here, once, so the
// accumulators read memoized values and join hooks see every record.
func (a *Aggregator) Observe(host *dataset.HostRecord) error {
	a.rec = Record{Host: host, d: &a.d}
	r := &a.rec
	r.Class()
	r.AS()
	r.HTTP()
	a.fold(r)
	a.rec = Record{}
	return nil
}

// Close implements dataset.Sink and drops the derivation sources — the AS
// database and the HTTP join hook — so a finished aggregator does not pin
// them (in the census pipeline the hook closes over the simulated world).
// The accumulators only hold the individual *asdb.AS entries they counted.
// Finalize methods keep working after Close.
func (a *Aggregator) Close() error {
	a.d.db = nil
	a.d.http = nil
	return nil
}

// fold dispatches a derived record to the accumulators.
func (a *Aggregator) fold(r *Record) {
	s := &a.s
	s.Observed++
	s.Funnel.Observe(r)
	s.Classification.Observe(r)
	s.ASConcentration.Observe(r)
	s.Devices.Observe(r)
	s.TopASes.Observe(r)
	s.Exposure.Observe(r)
	s.CVEs.Observe(r)
	s.Malicious.Observe(r)
	s.PortBounce.Observe(r)
	s.FTPS.Observe(r)
	s.Unexpected.Observe(r)
}

// Observed returns how many records have been folded.
func (a *Aggregator) Observed() int { return a.s.Observed }

// Funnel finalizes Table I for the given sweep size.
func (a *Aggregator) Funnel(ipsScanned uint64) Funnel { return a.s.Funnel.Finalize(ipsScanned) }

// Classification finalizes Table II.
func (a *Aggregator) Classification() Classification { return a.s.Classification.Finalize() }

// ASConcentration finalizes Table III / Figure 1.
func (a *Aggregator) ASConcentration() ASConcentration { return a.s.ASConcentration.Finalize() }

// Devices finalizes Tables IV, V, and VII.
func (a *Aggregator) Devices() DeviceBreakdown { return a.s.Devices.Finalize() }

// TopASes finalizes Table VI.
func (a *Aggregator) TopASes(n int) []TopAS { return a.s.TopASes.Finalize(n) }

// Exposure finalizes Tables VIII/IX and §V.
func (a *Aggregator) Exposure() Exposure { return a.s.Exposure.Finalize() }

// ExposureByDevice finalizes Table X.
func (a *Aggregator) ExposureByDevice() ExposureByDevice { return a.s.Exposure.FinalizeByDevice() }

// CVEs finalizes Table XI.
func (a *Aggregator) CVEs() CVEExposure { return a.s.CVEs.Finalize() }

// Malicious finalizes §VI.
func (a *Aggregator) Malicious() Malicious {
	return a.s.Malicious.Finalize(len(a.s.ASConcentration.Writable))
}

// PortBounce finalizes §VII.B.
func (a *Aggregator) PortBounce() PortBounce { return a.s.PortBounce.Finalize() }

// FTPS finalizes §IX and Tables XII/XIII.
func (a *Aggregator) FTPS(topN int) FTPS { return a.s.FTPS.Finalize(topN) }

// Unexpected finalizes the identification ledger — the endpoints the staged
// funnel shed before enumeration, by sniffed protocol. Empty on two-stage
// runs.
func (a *Aggregator) Unexpected() UnexpectedServices { return a.s.Unexpected.Finalize() }
