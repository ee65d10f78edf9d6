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
	Counts            map[string]*CVECount
	Vulnerable, Total int
}

// Observe folds one record.
func (a *CVEsAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	a.Total++
	c := r.Class()
	if c.Software == "" || c.Version == "" {
		return
	}
	matches := cvedb.Match(c.Software, c.Version)
	if len(matches) > 0 {
		a.Vulnerable++
	}
	if len(matches) > 0 && a.Counts == nil {
		a.Counts = map[string]*CVECount{}
	}
	for _, m := range matches {
		row, ok := a.Counts[m.ID]
		if !ok {
			row = &CVECount{Implementation: m.Software, ID: m.ID, CVSS: m.CVSS}
			a.Counts[m.ID] = row
		}
		row.IPs++
	}
}

// Finalize produces Table XI.
func (a *CVEsAcc) Finalize() CVEExposure {
	out := CVEExposure{VulnerableIPs: a.Vulnerable, TotalFTP: a.Total}
	for _, row := range a.Counts {
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
