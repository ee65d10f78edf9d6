package analysis

import (
	"sort"

	"ftpcloud/internal/cvedb"
)

// CVECount is one Table XI row.
type CVECount struct {
	Implementation string
	ID             string
	CVSS           float64
	IPs            int
}

// CVEExposure is Table XI plus the headline "more than one million servers
// are vulnerable to known attacks".
type CVEExposure struct {
	Rows []CVECount
	// VulnerableIPs counts hosts matching at least one CVE.
	VulnerableIPs int
	TotalFTP      int
}

// CVEsAcc accumulates Table XI. The zero value is ready.
type CVEsAcc struct {
	counts            map[string]*CVECount
	vulnerable, total int
}

// Observe folds one record.
func (a *CVEsAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	a.total++
	c := r.Class()
	if c.Software == "" || c.Version == "" {
		return
	}
	matches := cvedb.Match(c.Software, c.Version)
	if len(matches) > 0 {
		a.vulnerable++
	}
	if a.counts == nil {
		a.counts = map[string]*CVECount{}
	}
	for _, m := range matches {
		row, ok := a.counts[m.ID]
		if !ok {
			row = &CVECount{Implementation: m.Software, ID: m.ID, CVSS: m.CVSS}
			a.counts[m.ID] = row
		}
		row.IPs++
	}
}

// CVEsSnap is the serializable state of a CVEsAcc.
type CVEsSnap struct {
	Counts            map[string]CVECount
	Vulnerable, Total int
}

// Snapshot captures the accumulator as plain data.
func (a *CVEsAcc) Snapshot() CVEsSnap {
	s := CVEsSnap{Vulnerable: a.vulnerable, Total: a.total}
	if a.counts != nil {
		s.Counts = make(map[string]CVECount, len(a.counts))
		for id, row := range a.counts {
			s.Counts[id] = *row
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *CVEsAcc) Merge(s CVEsSnap) {
	a.vulnerable += s.Vulnerable
	a.total += s.Total
	if len(s.Counts) == 0 {
		return
	}
	if a.counts == nil {
		a.counts = map[string]*CVECount{}
	}
	for id, src := range s.Counts {
		row, ok := a.counts[id]
		if !ok {
			row = &CVECount{Implementation: src.Implementation, ID: src.ID, CVSS: src.CVSS}
			a.counts[id] = row
		}
		row.IPs += src.IPs
	}
}

// Finalize produces Table XI.
func (a *CVEsAcc) Finalize() CVEExposure {
	out := CVEExposure{VulnerableIPs: a.vulnerable, TotalFTP: a.total}
	for _, row := range a.counts {
		out.Rows = append(out.Rows, *row)
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Implementation != out.Rows[j].Implementation {
			return out.Rows[i].Implementation < out.Rows[j].Implementation
		}
		return out.Rows[i].ID > out.Rows[j].ID // newest CVE first, as the paper lists
	})
	return out
}
