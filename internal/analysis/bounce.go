package analysis

import (
	"ftpcloud/internal/dataset"
)

// PortBounce aggregates §VII.B: PORT-validation failures and their
// combinations with NAT and writability.
type PortBounce struct {
	// Tested counts anonymous hosts where the probe ran.
	Tested int
	// NotValidated counts hosts that connected to the third-party
	// collector (paper: 143,073 = 12.74% of anonymous servers).
	NotValidated    int
	PctNotValidated float64
	// HomePLShare is the fraction of failures inside AS12824 home.pl
	// (paper: 71.5%).
	HomePLShare float64
	// NATed counts servers whose PASV reply advertised a different
	// address (paper: 18,947); NATedNotValidated those also failing the
	// PORT check (846).
	NATed             int
	NATedNotValidated int
	// WritableNotValidated counts the bounce-attack-ready combination of
	// world-writable and unvalidated PORT (paper: 1,973).
	WritableNotValidated int
	// FileZillaServers counts FileZilla banners across the population
	// (paper: 409K, most exploitable after login).
	FileZillaServers int
}

// homePLASN is AS12824.
const homePLASN = 12824

// PortBounceAcc accumulates §VII.B. The zero value is ready.
type PortBounceAcc struct {
	// B carries only the counter fields — percentages are derived at
	// Finalize.
	B              PortBounce
	HomePLFailures int
}

// Observe folds one record.
func (a *PortBounceAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP {
		return
	}
	if r.Class().Software == "FileZilla Server" {
		a.B.FileZillaServers++
	}
	if !host.AnonymousOK {
		return
	}
	if host.PASVMismatch {
		a.B.NATed++
	}
	if host.PortCheck == dataset.PortNotTested || host.PortCheck == "" {
		return
	}
	a.B.Tested++
	if host.PortCheck != dataset.PortNotValidated {
		return
	}
	a.B.NotValidated++
	if as := r.AS(); as != nil && as.Number == homePLASN {
		a.HomePLFailures++
	}
	if host.PASVMismatch {
		a.B.NATedNotValidated++
	}
	if Writable(host) {
		a.B.WritableNotValidated++
	}
}

// Finalize produces §VII.B.
func (a *PortBounceAcc) Finalize() PortBounce {
	b := a.B
	b.PctNotValidated = percent(b.NotValidated, b.Tested)
	b.HomePLShare = percent(a.HomePLFailures, b.NotValidated)
	return b
}
