// Package fingerprint re-identifies hosts from wire observations the way
// the paper's classifiers do: banner patterns, FTPS certificate subjects,
// and implementation-specific responses map each host to a broad category
// (generic / hosted / embedded / unknown, Table II), a device model
// (Tables V and VII), and a software+version pair for CVE matching
// (Table XI).
//
// Classification is deliberately independent of the world generator: it
// sees only what came over the wire, so hosts with uninformative banners
// land in Unknown exactly as ~31% of the paper's population did.
package fingerprint

import (
	"strings"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/personality"
)

// Classification is the fingerprinting outcome for one host.
type Classification struct {
	// Category is personality.Category, or 0 when unclassifiable.
	Category personality.Category
	// DeviceModel uses the paper's device naming when identified.
	DeviceModel string
	// DeviceClass refines embedded devices.
	DeviceClass personality.DeviceClass
	// ProviderDeployed marks ISP-installed gear.
	ProviderDeployed bool
	// Software and Version identify the implementation for CVE matching.
	Software string
	Version  string
	// Ramnit marks the botnet's characteristic banner.
	Ramnit bool
}

// Known reports whether the host was classified at all.
func (c Classification) Known() bool { return c.Category != 0 }

// devicePattern maps a banner substring to a device identification.
type devicePattern struct {
	substr   string
	model    string
	class    personality.DeviceClass
	provider bool
}

// devicePatterns covers every device family the paper names. Order matters:
// first match wins.
var devicePatterns = []devicePattern{
	{"NASFTPD Turbo station", "QNAP Turbo NAS", personality.DeviceNAS, false},
	{"ASUS RT-", "ASUS wireless routers", personality.DeviceHomeRouter, false},
	{"Synology DiskStation", "Synology NAS devices", personality.DeviceNAS, false},
	{"LinkStation", "Buffalo NAS storage", personality.DeviceNAS, false},
	{"NSA-3", "ZyXEL/MitraStar NAS", personality.DeviceNAS, false},
	{"RICOH", "RICOH Printers", personality.DevicePrinter, false},
	{"LaCie CloudBox", "LaCie storage", personality.DeviceNAS, false},
	{"Lexmark", "Lexmark Printers", personality.DevicePrinter, false},
	{"Xerox", "Xerox Printers", personality.DevicePrinter, false},
	{"Dell Laser", "Dell Printers", personality.DevicePrinter, false},
	{"Linksys", "Linksys Wifi Routers", personality.DeviceHomeRouter, false},
	{"Lutron HomeWorks", "Lutron HomeWorks Processor", personality.DeviceAutomation, false},
	{"Seagate Central", "Seagate Storage devices", personality.DeviceStorage, false},

	{"FRITZ!Box", "FRITZ!Box DSL modem", personality.DeviceDSLModem, true},
	{"P-660HN", "ZyXEL DSL Modem", personality.DeviceDSLModem, true},
	{"AXIS", "AXIS Physical Security Device", personality.DeviceCamera, true},
	{"ZTE WiMax", "ZTE WiMax Router", personality.DeviceWiMaxRouter, true},
	{"Speedport", "Speedport DSL Modem", personality.DeviceDSLModem, true},
	{"Dreambox", "Dreambox Set-top Box", personality.DeviceSetTopBox, true},
	{"ZyXEL USG", "ZyXEL Unified Security Gateway", personality.DeviceSecurityGateway, true},
	{"Alcatel", "Alcatel Router", personality.DeviceHomeRouter, true},
	{"DrayTek", "DrayTek Network Devices", personality.DeviceHomeRouter, true},

	{"HipServ", "Axentra HipServ", personality.DeviceNAS, false},
	{"LG Electronics NAS", "LGE NAS", personality.DeviceNAS, false},
	{"Symon Media", "Symon Media Player", personality.DeviceMediaPlayer, false},
	{"AsusTor", "AsusTor NAS", personality.DeviceNAS, false},
}

// hostingCertCNs are shared-hosting certificate subjects (Table XII).
var hostingCertCNs = []string{
	"*.opentransfer.com", "*.securesites.com", "*.home.pl", "*.bluehost.com",
	"*.bizmw.com", "*.turnkeywebspace.com", "*.sakura.ne.jp", "ispgateway.de",
}

// deviceByFirstByte buckets devicePatterns indices (ascending) by the
// pattern's first byte, so matchDevice tests at each banner offset only the
// patterns that can start there.
var deviceByFirstByte = func() (idx [256][]uint8) {
	for i, dp := range devicePatterns {
		c := dp.substr[0]
		idx[c] = append(idx[c], uint8(i))
	}
	return idx
}()

// matchDevice returns the index of the first devicePatterns entry the
// banner contains, or -1: the answer of trying each pattern in order with
// strings.Contains, found in one pass over the banner. At each offset it
// tests only the patterns that start with that byte, and only those that
// would beat the best match so far.
func matchDevice(banner string) int {
	best := len(devicePatterns)
	for i := 0; i < len(banner) && best > 0; i++ {
		for _, p := range deviceByFirstByte[banner[i]] {
			if int(p) >= best {
				break
			}
			if strings.HasPrefix(banner[i:], devicePatterns[p].substr) {
				best = int(p)
				break
			}
		}
	}
	if best == len(devicePatterns) {
		return -1
	}
	return best
}

// Classify fingerprints one host record.
func Classify(rec *dataset.HostRecord) Classification {
	var c Classification
	banner := rec.Banner

	if strings.Contains(banner, "RMNetwork FTP") {
		c.Ramnit = true
		c.Category = personality.CategoryGeneric
		c.Software = "RMNetwork"
		return c
	}

	// Device banners identify embedded gear most specifically.
	if i := matchDevice(banner); i >= 0 {
		dp := &devicePatterns[i]
		c.Category = personality.CategoryEmbedded
		c.DeviceModel = dp.model
		c.DeviceClass = dp.class
		c.ProviderDeployed = dp.provider
		c.Software, c.Version = softwareVersion(banner)
		return c
	}

	// Hosting signals: provider banners or shared wildcard certificates.
	hosted := strings.Contains(banner, "home.pl") || strings.Contains(banner, "Plesk")
	if cert := rec.FTPSCert(); !hosted && cert != nil {
		for _, cn := range hostingCertCNs {
			if cert.CommonName == cn {
				hosted = true
				break
			}
		}
	}
	c.Software, c.Version = softwareVersion(banner)
	if hosted {
		c.Category = personality.CategoryHosted
		return c
	}

	if c.Software != "" {
		c.Category = personality.CategoryGeneric
		return c
	}
	// Bare banners ("FTP server ready.") stay unknown, as ~31% of the
	// paper's hosts did.
	return c
}

// softwareVersion extracts the implementation family and version string
// from a banner.
func softwareVersion(banner string) (software, version string) {
	// QNAP's rebranded ProFTPD carries its version before "Server":
	// "NASFTPD Turbo station 1.3.1e Server (ProFTPD)".
	if v, ok := versionAfter(banner, "NASFTPD Turbo station ", false, 0); ok {
		return "ProFTPD", v
	}
	if v, ok := versionAfter(banner, "ProFTPD ", false, 0); ok {
		return "ProFTPD", v
	}
	if v, ok := versionAfter(banner, "Pure-FTPd ", false, 0); ok {
		return "Pure-FTPd", v
	}
	if strings.Contains(banner, "Pure-FTPd") {
		return "Pure-FTPd", ""
	}
	if v, ok := versionAfter(banner, "(vsFTPd ", false, ')'); ok {
		return "vsFTPd", v
	}
	if v, ok := versionAfter(banner, "FileZilla Server version ", false, 0); ok {
		return "FileZilla Server", v
	}
	if v, ok := versionAfter(banner, "Serv-U FTP Server v", false, 0); ok {
		return "Serv-U", v
	}
	if v, ok := versionAfter(banner, "Version wu-", true, 0); ok {
		return "wu-ftpd", strings.TrimSuffix(v, "-5")
	}
	if strings.Contains(banner, "Microsoft FTP Service") {
		return "Microsoft FTP Service", ""
	}
	return "", ""
}

// versionAfter finds the first occurrence of prefix in s that is followed by
// a version: a digit, then the longest run of [A-Za-z0-9_.] ('-' too when
// dash is set). When closer is non-zero the run must be followed by that
// byte. It returns the run, matching what the regexp
// prefix(\d[\w.]*)closer captures at its leftmost match.
func versionAfter(s, prefix string, dash bool, closer byte) (string, bool) {
	for from := 0; ; {
		i := strings.Index(s[from:], prefix)
		if i < 0 {
			return "", false
		}
		start := from + i + len(prefix)
		if start < len(s) && isDigit(s[start]) {
			end := start + 1
			for end < len(s) && isVersionByte(s[end], dash) {
				end++
			}
			if closer == 0 || (end < len(s) && s[end] == closer) {
				return s[start:end], true
			}
		}
		from += i + 1
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isVersionByte reports whether c belongs to a version run: \w or '.', and
// '-' when dash is set.
func isVersionByte(c byte, dash bool) bool {
	return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		c == '_' || c == '.' || (dash && c == '-')
}
