package analysis

import (
	"sort"
	"strings"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/personality"
)

// ExtensionCount is one Table VIII row.
type ExtensionCount struct {
	Ext     string
	Files   int
	Servers int
}

// SensitiveClass is one Table IX row.
type SensitiveClass struct {
	Type        string // "Financial Information", "Password Databases", ...
	Name        string // "TurboTax Export", ...
	Servers     int
	Files       int
	Readable    int
	NonReadable int
	UnkReadable int
}

// Exposure aggregates §V: what anonymous FTP leaks.
type Exposure struct {
	// Extensions is Table VIII, computed over identified SOHO devices.
	Extensions []ExtensionCount
	// Sensitive is Table IX.
	Sensitive []SensitiveClass
	// IndexHTMLFiles/Servers mirror the "index.html is the most common
	// file" observation.
	IndexHTMLFiles   int
	IndexHTMLServers int
	// Photo library stats.
	PhotoFiles    int
	PhotoReadable int
	PhotoServers  int
	// OS-root exposure counts.
	OSRootLinux   int
	OSRootWindows int
	// Scripting-source exposure.
	HtaccessFiles   int
	HtaccessServers int
	ScriptFiles     int
	ScriptServers   int
	// ExposingServers counts anonymous servers listing any entry at all
	// ("24% exposed some form of data").
	ExposingServers int
	AnonServers     int
	// RobotsSeen / RobotsExcludeAll mirror the robots.txt adoption stats.
	RobotsSeen       int
	RobotsExcludeAll int
	// Truncated counts hosts whose tree exceeded the request cap.
	Truncated int
}

// ExposureByDevice is Table X: which device classes account for each
// exposure type. Percentages are of servers showing that exposure.
type ExposureByDevice struct {
	// Rows map exposure type → class name → percentage.
	Rows map[string]map[string]float64
	// Totals is the number of servers per exposure type.
	Totals map[string]int
}

// isPhotoName reports whether a filename is a camera's photo name: what
// the regexp ^(?i)(DSC|DSCN|IMG|IMGP|P|PICT)[-_]?\d{3,}\.(jpe?g)$ matches,
// found without one. The letters fold as that regexp folds them, so "s"
// also matches U+017F (ſ).
func isPhotoName(name string) bool {
	var prefix [4]byte
	n, i := 0, 0
letters:
	for i < len(name) {
		c := name[i]
		width := 1
		switch {
		case c >= 'a' && c <= 'z':
			c -= 'a' - 'A'
		case c >= 'A' && c <= 'Z':
		case strings.HasPrefix(name[i:], "ſ"):
			c, width = 'S', len("ſ")
		default:
			break letters
		}
		if n == len(prefix) {
			return false
		}
		prefix[n] = c
		n++
		i += width
	}
	switch string(prefix[:n]) {
	case "DSC", "DSCN", "IMG", "IMGP", "P", "PICT":
	default:
		return false
	}
	if i < len(name) && (name[i] == '-' || name[i] == '_') {
		i++
	}
	digits := i
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i-digits < 3 {
		return false
	}
	ext := name[i:]
	return strings.EqualFold(ext, ".jpg") || strings.EqualFold(ext, ".jpeg")
}

var scriptExtensions = map[string]bool{
	"php": true, "asp": true, "aspx": true, "jsp": true, "cgi": true, "pl": true,
}

// sensitiveMatcher classifies a filename into a Table IX class.
type sensitiveMatcher struct {
	typ, name string
	match     func(name, lower string) bool
}

var sensitiveMatchers = []sensitiveMatcher{
	{"Financial Information", "TurboTax Export", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".txf") || strings.Contains(lower, "turbotax")
	}},
	{"Financial Information", "Quicken Data", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".qdf")
	}},
	{"Password Databases", "KeePass/KeePassX", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".kdbx") || strings.HasSuffix(lower, ".kdb")
	}},
	{"Password Databases", "1Password", func(name, lower string) bool {
		return strings.Contains(lower, "agilekeychain")
	}},
	{"Key Material", "SSH host private keys", func(name, lower string) bool {
		return strings.Contains(lower, "ssh_host_") && !strings.HasSuffix(lower, ".pub")
	}},
	{"Key Material", "Putty SSH client keys", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".ppk")
	}},
	{"Key Material", `"priv" .pem files`, func(name, lower string) bool {
		return strings.HasSuffix(lower, ".pem") && strings.Contains(lower, "priv")
	}},
	{"Other", "shadow files", func(name, lower string) bool {
		return lower == "shadow" || strings.HasPrefix(lower, "shadow.")
	}},
	{"Other", ".pst files", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".pst")
	}},
}

// linuxRootMarkers / windowsRootMarkers follow §V's detection method.
var (
	linuxRootMarkers   = []string{"/bin", "/var", "/boot", "/etc"}
	windowsRootMarkers = [][]string{
		{"/Windows", "/Program Files", "/Users"},
		{"/WINDOWS", "/Program Files", "/Documents and Settings"},
	}
)

// exposureTypes is Table X's row set (plus the derived "All" row).
var exposureTypes = []string{
	"Sensitive Documents", "Photo Libraries", "Root File Systems", "Scripting Source",
}

// exposureClassOf maps a classification to Table X's column set.
func exposureClassOf(c fingerprint.Classification) string {
	switch {
	case !c.Known():
		return "Unk"
	case c.Category == personality.CategoryHosted:
		return "Hosting"
	case c.Category == personality.CategoryGeneric:
		return "Generic"
	case c.DeviceClass == personality.DeviceNAS || c.DeviceClass == personality.DeviceStorage:
		return "NAS"
	case c.DeviceClass == personality.DeviceHomeRouter:
		return "Router"
	default:
		return "Other Embedded"
	}
}

// ExposureAcc accumulates §V plus Table X in one pass. Unlike the old
// slice-path implementation it keeps no per-server record sets — each
// record's exposure types and device class are resolved while the record
// is hot, so only counters survive and the listing memory can be freed.
// The zero value is ready.
type ExposureAcc struct {
	// Exp carries only the counter fields — the Extensions/Sensitive
	// slices are derived at Finalize and never populated here.
	Exp Exposure

	ExtFiles   map[string]int
	ExtServers map[string]int
	Sens       map[string]*SensitiveClass

	// Table X: exposure type → device class → server count.
	TypeClasses map[string]map[string]int
	TypeTotals  map[string]int
}

func (a *ExposureAcc) init() {
	a.ExtFiles = map[string]int{}
	a.ExtServers = map[string]int{}
	a.Sens = map[string]*SensitiveClass{}
	for _, m := range sensitiveMatchers {
		a.Sens[m.name] = &SensitiveClass{Type: m.typ, Name: m.name}
	}
	a.TypeClasses = map[string]map[string]int{}
	a.TypeTotals = map[string]int{}
}

// Observe folds one record.
func (a *ExposureAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP || !host.AnonymousOK {
		return
	}
	if a.Sens == nil {
		a.init()
	}
	e := &a.Exp
	e.AnonServers++
	if host.RobotsTxt != "" {
		e.RobotsSeen++
		if host.RobotsExcludeAll {
			e.RobotsExcludeAll++
		}
	}
	if host.ListingTruncated {
		e.Truncated++
	}
	if len(host.Files) == 0 {
		return
	}
	e.ExposingServers++

	c := r.Class()
	isSOHO := c.Category == personality.CategoryEmbedded && !c.ProviderDeployed

	dirs := map[string]bool{}
	indexSeen, photoSeen := false, false
	scriptSeen, htaccessSeen := false, false
	sensSeen := map[string]bool{}
	var extSeen map[string]bool
	if isSOHO {
		extSeen = map[string]bool{}
	}

	for i := range host.Files {
		f := &host.Files[i]
		if f.IsDir {
			dirs[f.Path] = true
			continue
		}
		lower := strings.ToLower(f.Name)

		if isSOHO {
			if dot := strings.LastIndexByte(lower, '.'); dot >= 0 && dot < len(lower)-1 {
				ext := "." + lower[dot+1:]
				a.ExtFiles[ext]++
				if !extSeen[ext] {
					extSeen[ext] = true
					a.ExtServers[ext]++
				}
			}
		}

		if lower == "index.html" {
			e.IndexHTMLFiles++
			indexSeen = true
		}
		if isPhotoName(f.Name) {
			e.PhotoFiles++
			if f.Read == dataset.ReadYes || f.Read == dataset.ReadUnknown {
				e.PhotoReadable++
			}
			photoSeen = true
		}
		if lower == ".htaccess" {
			e.HtaccessFiles++
			htaccessSeen = true
		}
		if dot := strings.LastIndexByte(lower, '.'); dot >= 0 {
			if scriptExtensions[lower[dot+1:]] {
				e.ScriptFiles++
				scriptSeen = true
			}
		}

		for _, m := range sensitiveMatchers {
			if !m.match(f.Name, lower) {
				continue
			}
			sc := a.Sens[m.name]
			sc.Files++
			switch f.Read {
			case dataset.ReadYes:
				sc.Readable++
			case dataset.ReadNo:
				sc.NonReadable++
			default:
				sc.UnkReadable++
			}
			if !sensSeen[m.name] {
				sensSeen[m.name] = true
				sc.Servers++
			}
			break
		}
	}

	if indexSeen {
		e.IndexHTMLServers++
	}
	if photoSeen {
		e.PhotoServers++
	}
	if scriptSeen {
		e.ScriptServers++
	}
	if htaccessSeen {
		e.HtaccessServers++
	}

	osRootSeen := false
	if countMarkers(dirs, linuxRootMarkers) >= 3 {
		e.OSRootLinux++
		osRootSeen = true
	} else {
		for _, markers := range windowsRootMarkers {
			if countMarkers(dirs, markers) >= 2 {
				e.OSRootWindows++
				osRootSeen = true
				break
			}
		}
	}

	// Table X: record which exposure types this server exhibits, bucketed
	// by its device class, while the classification is still at hand.
	exhibited := map[string]bool{
		"Sensitive Documents": len(sensSeen) > 0,
		"Photo Libraries":     photoSeen,
		"Root File Systems":   osRootSeen,
		"Scripting Source":    scriptSeen || htaccessSeen,
	}
	any := false
	cls := exposureClassOf(c)
	for _, typ := range exposureTypes {
		if !exhibited[typ] {
			continue
		}
		any = true
		a.bumpType(typ, cls)
	}
	if any {
		a.bumpType("All", cls)
	}
}

// bumpType counts one server of device class cls showing exposure typ.
func (a *ExposureAcc) bumpType(typ, cls string) {
	m, ok := a.TypeClasses[typ]
	if !ok {
		m = map[string]int{}
		a.TypeClasses[typ] = m
	}
	m[cls]++
	a.TypeTotals[typ]++
}

// Finalize produces Tables VIII/IX and §V's prose statistics.
func (a *ExposureAcc) Finalize() Exposure {
	e := a.Exp
	e.Extensions = nil
	for ext, n := range a.ExtFiles {
		e.Extensions = append(e.Extensions, ExtensionCount{
			Ext: ext, Files: n, Servers: a.ExtServers[ext],
		})
	}
	sort.Slice(e.Extensions, func(i, j int) bool {
		if e.Extensions[i].Files != e.Extensions[j].Files {
			return e.Extensions[i].Files > e.Extensions[j].Files
		}
		return e.Extensions[i].Ext < e.Extensions[j].Ext
	})
	e.Sensitive = nil
	for _, m := range sensitiveMatchers {
		if sc, ok := a.Sens[m.name]; ok {
			e.Sensitive = append(e.Sensitive, *sc)
		} else {
			e.Sensitive = append(e.Sensitive, SensitiveClass{Type: m.typ, Name: m.name})
		}
	}
	return e
}

// FinalizeByDevice produces Table X.
func (a *ExposureAcc) FinalizeByDevice() ExposureByDevice {
	out := ExposureByDevice{
		Rows:   make(map[string]map[string]float64),
		Totals: make(map[string]int),
	}
	for _, typ := range append(append([]string{}, exposureTypes...), "All") {
		total := a.TypeTotals[typ]
		row := make(map[string]float64)
		for cls, n := range a.TypeClasses[typ] {
			row[cls] = percent(n, total)
		}
		out.Rows[typ] = row
		out.Totals[typ] = total
	}
	return out
}

func countMarkers(dirs map[string]bool, markers []string) int {
	n := 0
	for _, m := range markers {
		if dirs[m] {
			n++
		}
	}
	return n
}
