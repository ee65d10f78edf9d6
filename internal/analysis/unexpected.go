package analysis

import "sort"

// UnexpectedServices is the identification ledger: what the staged funnel
// shed before enumeration, broken out by sniffed protocol. It is the
// simulation's analogue of LZR's headline result — most endpoints that
// accept a connection on a port do not speak the port's expected protocol —
// and it only populates on runs with the identification stage enabled.
type UnexpectedServices struct {
	// Total counts every shed endpoint.
	Total int
	// Services breaks Total out by protocol, largest first.
	Services []UnexpectedService
}

// UnexpectedService is one protocol's row in the shed ledger.
type UnexpectedService struct {
	Protocol string
	Count    int
	// PctShed is the protocol's share of everything shed.
	PctShed float64
	// SampleBanner is one observed first-response; the lexicographically
	// smallest is kept so the choice is deterministic whatever order the
	// workers finish records in.
	SampleBanner string
}

// UnexpectedAcc accumulates the shed ledger incrementally. The zero value is
// ready. Records without a Service (every FTP record, and every record of a
// two-stage run) are ignored, so the accumulator is inert unless the
// identification stage ran.
type UnexpectedAcc struct {
	Total   int
	ByProto map[string]int
	Sample  map[string]string
}

// Observe folds one record.
func (a *UnexpectedAcc) Observe(r *Record) {
	if r.Host.Service == "" {
		return
	}
	a.Total++
	if a.ByProto == nil {
		a.ByProto = make(map[string]int)
		a.Sample = make(map[string]string)
	}
	// The sample is the smallest non-empty banner seen, so any fold order
	// keeps the same one.
	proto, banner := r.Host.Service, r.Host.Banner
	a.ByProto[proto]++
	if cur, ok := a.Sample[proto]; banner != "" && (!ok || banner < cur) {
		a.Sample[proto] = banner
	}
}

// Finalize produces the ledger table: rows sorted by count descending,
// protocol name ascending on ties — deterministic regardless of fold order.
func (a *UnexpectedAcc) Finalize() UnexpectedServices {
	u := UnexpectedServices{Total: a.Total}
	for proto, n := range a.ByProto {
		u.Services = append(u.Services, UnexpectedService{
			Protocol:     proto,
			Count:        n,
			PctShed:      percent(n, a.Total),
			SampleBanner: a.Sample[proto],
		})
	}
	sort.Slice(u.Services, func(i, j int) bool {
		if u.Services[i].Count != u.Services[j].Count {
			return u.Services[i].Count > u.Services[j].Count
		}
		return u.Services[i].Protocol < u.Services[j].Protocol
	})
	return u
}
