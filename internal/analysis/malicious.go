package analysis

import (
	"sort"
	"strings"

	"ftpcloud/internal/campaigns"
	"ftpcloud/internal/dataset"
)

// CampaignHit is per-campaign prevalence.
type CampaignHit struct {
	Key     string
	Name    string
	Servers int
	Files   int
}

// Malicious aggregates §VI: world-writability evidence and the campaigns
// found on anonymous servers.
type Malicious struct {
	// WritableServers / WritableASes mirror "19.4K servers in 3.4K ASes
	// appear to be world-writable".
	WritableServers int
	WritableASes    int
	// AnonUploadConfirmed counts servers that confirmed anonymous
	// uploads via the Pure-FTPd RETR refusal (§VI.A's first evidence
	// type).
	AnonUploadConfirmed int
	// Campaigns is per-campaign prevalence, sorted by server count.
	Campaigns []CampaignHit
	// RATFiles / RATServers mirror "6K RAT related files on 724 servers".
	RATFiles   int
	RATServers int
	// DDoSServers mirrors the history.php/phzLtoxn.php total (1,792).
	DDoSServers int
	// HolyBibleServers and the fraction that also carry write evidence
	// (paper: 1,131 servers, 55.35%).
	HolyBibleServers     int
	HolyBiblePctWritable float64
	// WaReZServers mirrors the timestamped-directory campaign (4,868).
	WaReZServers int
	// RamnitServers counts the botnet's banner (1,051).
	RamnitServers int
	// HTTPOverlap / ScriptingOverlap are the Censys-join statistics:
	// FTP hosts that also run a web server / advertise scripting.
	HTTPOverlap      int
	ScriptingOverlap int
	TotalFTP         int
}

// MaliciousAcc accumulates §VI. The zero value is ready.
//
// It keeps no writable-AS set: those ASes are exactly the keys of
// ASConcentrationAcc.Writable (FTP, anonymous, writable, AS known), so
// Finalize takes their count from there.
type MaliciousAcc struct {
	WritableServers, AnonUploadConfirmed    int
	RATFiles, RATServers, DDoSServers       int
	HolyBibleServers, HolyBibleWritable     int
	WarezServers, RamnitServers             int
	HTTPOverlap, ScriptingOverlap, TotalFTP int
	CampServers, CampFiles                  map[string]int
}

// Observe folds one record.
func (a *MaliciousAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP {
		return
	}
	a.TotalFTP++
	if info, ok := r.HTTP(); ok && info.HTTP {
		a.HTTPOverlap++
		if info.Scripting {
			a.ScriptingOverlap++
		}
	}
	if r.Class().Ramnit {
		a.RamnitServers++
	}
	if !host.AnonymousOK {
		return
	}
	if a.CampServers == nil {
		a.CampServers = map[string]int{}
		a.CampFiles = map[string]int{}
	}

	if Writable(host) {
		a.WritableServers++
	}
	if host.AnonUploadConfirmed {
		a.AnonUploadConfirmed++
	}

	seenHere := map[string]bool{}
	ratSeen := false
	warezSeen := false
	for i := range host.Files {
		f := &host.Files[i]
		if f.IsDir {
			if campaigns.IsWaReZDir(f.Name) {
				warezSeen = true
			}
			continue
		}
		for _, key := range campaigns.DetectFilename(f.Name) {
			a.CampFiles[key]++
			if !seenHere[key] {
				seenHere[key] = true
				a.CampServers[key]++
			}
			if key == campaigns.KeyRATEval {
				a.RATFiles++
				ratSeen = true
			}
		}
	}
	if ratSeen {
		a.RATServers++
	}
	if warezSeen {
		a.WarezServers++
		if !seenHere[campaigns.KeyWaReZ] {
			a.CampServers[campaigns.KeyWaReZ]++
		}
	}
	if seenHere[campaigns.KeyDDoSHistory] || seenHere[campaigns.KeyDDoSPhzLtoxn] {
		a.DDoSServers++
	}
	if hasHolyBible(host) {
		a.HolyBibleServers++
		if Writable(host) {
			a.HolyBibleWritable++
		}
	}
}

// Finalize produces §VI. writableASes is the number of ASes holding a
// world-writable anonymous server (len(ASConcentrationAcc.Writable)).
func (a *MaliciousAcc) Finalize(writableASes int) Malicious {
	m := Malicious{
		WritableServers:     a.WritableServers,
		WritableASes:        writableASes,
		AnonUploadConfirmed: a.AnonUploadConfirmed,
		RATFiles:            a.RATFiles,
		RATServers:          a.RATServers,
		DDoSServers:         a.DDoSServers,
		HolyBibleServers:    a.HolyBibleServers,
		WaReZServers:        a.WarezServers,
		RamnitServers:       a.RamnitServers,
		HTTPOverlap:         a.HTTPOverlap,
		ScriptingOverlap:    a.ScriptingOverlap,
		TotalFTP:            a.TotalFTP,
	}
	m.HolyBiblePctWritable = percent(a.HolyBibleWritable, a.HolyBibleServers)
	for key, n := range a.CampServers {
		c := campaigns.ByKey(key)
		name := key
		if c != nil {
			name = c.Name
		}
		m.Campaigns = append(m.Campaigns, CampaignHit{
			Key: key, Name: name, Servers: n, Files: a.CampFiles[key],
		})
	}
	sort.Slice(m.Campaigns, func(i, j int) bool {
		if m.Campaigns[i].Servers != m.Campaigns[j].Servers {
			return m.Campaigns[i].Servers > m.Campaigns[j].Servers
		}
		return m.Campaigns[i].Key < m.Campaigns[j].Key
	})
	return m
}

func hasHolyBible(r *dataset.HostRecord) bool {
	for i := range r.Files {
		if strings.EqualFold(r.Files[i].Name, "Holy-Bible.html") {
			return true
		}
	}
	return false
}
