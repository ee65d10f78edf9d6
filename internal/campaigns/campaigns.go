// Package campaigns catalogs the malicious campaigns the paper uncovers on
// world-writable anonymous FTP servers (§VI): write-probing, server-side
// RATs, UDP DDoS scripts, the ftpchk3 multi-stage campaign, the Holy Bible
// SEO campaign, software-cracking-service fliers, the Ramnit botnet's FTP
// backdoor, and WaReZ transport drops.
//
// The catalog is shared three ways: the world generator plants campaign
// artifacts on infected hosts, the attacker fleet uploads them to honeypots,
// and the analysis detects them in enumeration listings — mirroring how the
// paper's reference set was built from observed uploads.
package campaigns

import (
	"strings"
)

// Kind classifies a campaign's purpose.
type Kind int

// Campaign kinds.
const (
	KindWriteProbe Kind = iota + 1
	KindRAT
	KindDDoS
	KindMultiStage
	KindSEO
	KindFlier
	KindWaReZ
	KindBotnet
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindWriteProbe:
		return "write-probe"
	case KindRAT:
		return "remote-access-tool"
	case KindDDoS:
		return "ddos"
	case KindMultiStage:
		return "multi-stage"
	case KindSEO:
		return "seo"
	case KindFlier:
		return "advertising-flier"
	case KindWaReZ:
		return "warez-transport"
	case KindBotnet:
		return "botnet"
	default:
		return "unknown"
	}
}

// Artifact is one file a campaign drops.
type Artifact struct {
	// Name is the exact filename used ("w0000000t.txt").
	Name string
	// Content is the dropped payload (synthetic stand-in).
	Content string
	// Stage orders multi-stage campaigns (1-based); 0 for single-stage.
	Stage int
}

// Campaign is one malicious campaign.
type Campaign struct {
	// Key uniquely identifies the campaign.
	Key string
	// Name is the paper's name for it.
	Name string
	Kind Kind
	// Artifacts are the files the campaign drops, in stage order.
	Artifacts []Artifact
	// InReferenceSet marks campaigns whose artifacts the paper uses as
	// world-writability evidence.
	InReferenceSet bool
}

// Campaign keys.
const (
	KeyProbeW0000000t  = "probe-w0000000t"
	KeyProbeSjutd      = "probe-sjutd"
	KeyProbeHelloWorld = "probe-helloworld"
	KeyFtpchk3         = "ftpchk3"
	KeyRATEval         = "rat-php-eval"
	KeyDDoSHistory     = "ddos-history"
	KeyDDoSPhzLtoxn    = "ddos-phzltoxn"
	KeyHolyBible       = "seo-holy-bible"
	KeyCrackFlier      = "crack-service-flier"
	KeyWaReZ           = "warez-transport"
	KeyRamnit          = "ramnit"
)

// udpFloodPHP is the synthetic stand-in for the UDP DDoS scripts the paper
// describes: "receive a target host/port and time length from the GET
// parameters and send 65kB UDP packets as fast as possible".
const udpFloodPHP = `<?php
// synthetic stand-in for observed UDP flood tooling (defanged)
$host = $_GET['host']; $port = intval($_GET['port']); $secs = intval($_GET['time']);
/* flood loop elided in simulation */
echo "flood $host:$port for $secs";
?>`

// All returns the full campaign catalog. The slice is freshly allocated.
func All() []Campaign {
	return []Campaign{
		{
			Key: KeyProbeW0000000t, Name: "w0000000t write probe", Kind: KindWriteProbe,
			InReferenceSet: true,
			Artifacts: []Artifact{
				{Name: "w0000000t.txt", Content: "Anonymous"},
				{Name: "w0000000t.php", Content: "Anonymous"},
			},
		},
		{
			Key: KeyProbeSjutd, Name: "sjutd write probe", Kind: KindWriteProbe,
			InReferenceSet: true,
			Artifacts:      []Artifact{{Name: "sjutd.txt", Content: "test"}},
		},
		{
			Key: KeyProbeHelloWorld, Name: "hello.world write probe", Kind: KindWriteProbe,
			InReferenceSet: true,
			Artifacts:      []Artifact{{Name: "hello.world.txt", Content: "aGVsbG8gd29ybGQ="}},
		},
		{
			Key: KeyFtpchk3, Name: "ftpchk3 staged campaign", Kind: KindMultiStage,
			InReferenceSet: true,
			Artifacts: []Artifact{
				{Name: "ftpchk3.txt", Content: "ftpchk3", Stage: 1},
				{Name: "ftpchk3.php", Content: `<?php echo "OK"; ?>`, Stage: 2},
				{Name: "ftpchk3.php", Content: "<?php /* synthetic recon: phpversion(), loaded extensions, CMS detect */ ?>", Stage: 3},
			},
		},
		{
			Key: KeyRATEval, Name: "single-line PHP RAT", Kind: KindRAT,
			InReferenceSet: true,
			Artifacts: []Artifact{
				{Name: "sh3ll.php", Content: "<?php /* synthetic RAT marker: eval-POST-5 */ ?>"},
				{Name: "up.php", Content: "<?php /* synthetic RAT marker: eval-POST-5 */ ?>"},
				{Name: "x.php", Content: "<?php /* synthetic RAT marker: eval-POST-5 */ ?>"},
			},
		},
		{
			Key: KeyDDoSHistory, Name: "history.php UDP DDoS", Kind: KindDDoS,
			InReferenceSet: true,
			Artifacts:      []Artifact{{Name: "history.php", Content: udpFloodPHP}},
		},
		{
			Key: KeyDDoSPhzLtoxn, Name: "phzLtoxn.php UDP DDoS", Kind: KindDDoS,
			InReferenceSet: true,
			Artifacts:      []Artifact{{Name: "phzLtoxn.php", Content: udpFloodPHP}},
		},
		{
			Key: KeyHolyBible, Name: "Holy Bible SEO campaign", Kind: KindSEO,
			// Not in the reference set: detected via its ancillary tag
			// file (§VI.B).
			InReferenceSet: false,
			Artifacts: []Artifact{
				{Name: "Holy-Bible.html", Content: "<html><!-- campaign tag --></html>"},
				{Name: "index.php", Content: "<?php /* synthetic SEO injector: href spam, spreads, deletes .bak/.zip/.apk/.msi */ ?>"},
			},
		},
		{
			Key: KeyCrackFlier, Name: "software cracking service fliers", Kind: KindFlier,
			InReferenceSet: false,
			Artifacts: []Artifact{
				{Name: "Software-Cracking-Service.pdf", Content: "%PDF-1.4 synthetic flier: keygens and dongle emulators, $300-$500, contact via Bitmessage"},
				{Name: "Software-Cracking-Service.ps", Content: "%!PS synthetic flier"},
			},
		},
		{
			Key: KeyWaReZ, Name: "WaReZ transport", Kind: KindWaReZ,
			InReferenceSet: false,
			// Directory-based; DirPattern below matches its drops.
			Artifacts: nil,
		},
		{
			Key: KeyRamnit, Name: "Ramnit botnet FTP server", Kind: KindBotnet,
			InReferenceSet: false,
			// Banner-based detection; no file artifacts.
			Artifacts: nil,
		},
	}
}

// ByKey returns the campaign with the given key, or nil.
func ByKey(key string) *Campaign {
	all := All()
	for i := range all {
		if all[i].Key == key {
			return &all[i]
		}
	}
	return nil
}

// ReferenceSet returns the filenames whose presence marks a server as
// world-writable — the paper's §VI.A reference set.
func ReferenceSet() map[string]bool {
	set := make(map[string]bool)
	for _, c := range All() {
		if !c.InReferenceSet {
			continue
		}
		for _, a := range c.Artifacts {
			set[a.Name] = true
		}
	}
	return set
}

// IsWaReZDir reports whether a directory name matches the WaReZ transport
// campaign signature: 2-digit year + month + day + 6-digit time + "p",
// exactly twelve ASCII digits then "p".
func IsWaReZDir(name string) bool {
	if len(name) != 13 || name[12] != 'p' {
		return false
	}
	for i := 0; i < 12; i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// RamnitBanner is the botnet's characteristic banner text; on the wire it
// appears as "220 220 RMNetwork FTP".
const RamnitBanner = "220 RMNetwork FTP"

// IsRamnitBanner reports whether a banner marks a Ramnit victim.
func IsRamnitBanner(banner string) bool {
	return strings.Contains(banner, "RMNetwork FTP")
}

// filenameKeys indexes the catalog by artifact filename: each name maps to
// the keys of the campaigns that drop it, in catalog order. Built once, so
// a listing scan or an upload attribution never rebuilds the catalog.
var filenameKeys = func() map[string][]string {
	idx := map[string][]string{}
	for _, c := range All() {
		for _, a := range c.Artifacts {
			keys := idx[a.Name]
			if len(keys) == 0 || keys[len(keys)-1] != c.Key {
				idx[a.Name] = append(keys, c.Key)
			}
		}
	}
	return idx
}()

// DetectFilename maps a filename to the campaigns that drop it. A miss
// allocates nothing; a hit returns a fresh slice the caller may keep.
func DetectFilename(name string) []string {
	keys, ok := filenameKeys[name]
	if !ok {
		return nil
	}
	return append([]string(nil), keys...)
}

// Attribution keys for honeypot-observed activity that is not a §VI
// file-dropping campaign: protocol-level exploit attempts and relay abuse
// the §VIII study attributes alongside the upload campaigns.
const (
	KeyCVEModCopy  = "cve-2015-3306"
	KeySeagateRoot = "seagate-root-login"
	KeyPortBounce  = "port-bounce-relay"
	// KeyUncataloged buckets uploads matching no cataloged campaign.
	KeyUncataloged = "uncataloged-upload"
)

// AttributeUpload maps an uploaded filename to a single campaign key for
// attribution tables: the lexicographically-first catalog match so
// attribution is deterministic, or KeyUncataloged when nothing matches.
func AttributeUpload(name string) string {
	keys := filenameKeys[name]
	if len(keys) == 0 {
		return KeyUncataloged
	}
	best := keys[0]
	for _, k := range keys[1:] {
		if k < best {
			best = k
		}
	}
	return best
}

// AttributeMkdir maps a created directory name to a campaign key, or ""
// when the name carries no campaign signature.
func AttributeMkdir(name string) string {
	if IsWaReZDir(name) {
		return KeyWaReZ
	}
	return ""
}
