package worldgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/asdb"
	"ftpcloud/internal/certs"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
)

// World is the synthesized FTP ecosystem. It implements simnet.HostProvider:
// the scanner probes addresses, and hosts materialize on first contact.
type World struct {
	Params Params
	ASDB   *asdb.DB
	Certs  *certs.Pool

	profiles    []*asProfile
	profileByAS map[*asdb.AS]*asProfile
	uniqueCerts []string

	// ScanBase/ScanSize delimit the address range a full census scans.
	ScanBase simnet.IP
	ScanSize uint64

	// nonFTPRate is nonFTPOpenRate precomputed at construction; the
	// probe fast path consults it for every closed address.
	nonFTPRate float64

	// hosts holds the resident hosts (see hosts.go), sharded by IP so
	// concurrent enumerator workers materializing different hosts never
	// contend on one lock. The probe path never touches it.
	hosts [hostShards]hostShard
	// m counts host lifecycle events; BindMetrics moves it into a registry.
	m hostMetrics

	// serving counts connections being served by world hosts; WaitIdle
	// waits on idle for it to reach zero.
	serving atomic.Int64
	idleMu  sync.Mutex
	idle    *sync.Cond
}

// hostShards is the host-map fan-out; a power of two so the shard index
// is a mask.
const hostShards = 64

type hostShard struct {
	mu sync.Mutex
	m  map[simnet.IP]*hostEntry
}

// hostMetrics counts hosts entering and leaving the resident set:
// world.materialized == world.evicted + world.resident at every quiet
// point.
type hostMetrics struct {
	materialized *obs.Counter
	evicted      *obs.Counter
	resident     *obs.Gauge
}

// newHostMetrics binds the set; a nil registry yields standalone metrics.
func newHostMetrics(reg *obs.Registry) hostMetrics {
	return hostMetrics{
		materialized: reg.Counter("world.materialized"),
		evicted:      reg.Counter("world.evicted"),
		resident:     reg.Gauge("world.resident"),
	}
}

// BindMetrics rebinds the world's host lifecycle metrics into reg as
// world.materialized, world.evicted and world.resident. Like
// simnet.Network.BindMetrics, it must be called before traffic flows.
func (w *World) BindMetrics(reg *obs.Registry) { w.m = newHostMetrics(reg) }

// New synthesizes a world from parameters.
func New(p Params) (*World, error) {
	if p.Scale < 1 {
		return nil, fmt.Errorf("worldgen: scale must be >= 1, got %d", p.Scale)
	}
	db, profiles, err := buildASLayout(p)
	if err != nil {
		return nil, err
	}
	pool, uniqueNames, err := buildCertPool(p)
	if err != nil {
		return nil, err
	}
	byAS := make(map[*asdb.AS]*asProfile, len(profiles))
	for _, prof := range profiles {
		byAS[prof.AS] = prof
	}
	w := &World{
		Params:      p,
		ASDB:        db,
		Certs:       pool,
		profiles:    profiles,
		profileByAS: byAS,
		uniqueCerts: uniqueNames,
		ScanBase:    simnet.MustParseIP("1.0.0.0"),
		ScanSize:    p.ScanSpaceSize(),
		m:           newHostMetrics(nil),
	}
	w.idle = sync.NewCond(&w.idleMu)
	w.nonFTPRate = nonFTPOpenRateFor(p)
	for i := range w.hosts {
		w.hosts[i].m = make(map[simnet.IP]*hostEntry)
	}
	return w, nil
}

// profileFor maps an IP to its AS profile, or nil.
func (w *World) profileFor(ip simnet.IP) *asProfile {
	as, ok := w.ASDB.Lookup(ip)
	if !ok {
		return nil
	}
	return w.profileByAS[as]
}

// Profiles returns the per-AS generation profiles (read-only).
func (w *World) Profiles() []*asProfile { return w.profiles }

// Derivation salts: each per-host decision draws from an independent stream.
const (
	saltFTP = iota + 1
	saltNonFTP
	saltPers
	saltAnon
	saltWritable
	saltFTPS
	saltCert
	saltTLSReq
	saltNAT
	saltTree
	saltExposed
	saltSensitive
	saltRobots
	saltHTTP
	saltScript
	saltCampaign
	saltDeep
	saltLimit
	saltInternal
	saltTreeSeed
	saltOSRoot
	// Hostile-layer salts; appended so earlier derivations are unchanged
	// across versions (worlds with HostileRate=0 are bit-identical to
	// worlds generated before the fault layer existed).
	saltFault
	saltFaultClass
	saltFaultParam
	// Service-layer salts; appended for the same reason (worlds with the
	// zero-value ServiceMix are bit-identical to worlds generated before
	// the unexpected-service layer existed).
	saltService
	saltServiceParam
	// Epoch-churn salts; appended so Epoch-0 worlds are bit-identical to
	// worlds generated before the longitudinal layer existed. Epoch draws
	// additionally mix the epoch number into the seed (epochSeed), so each
	// epoch's churn is an independent stream.
	saltEpochChurn
	saltEpochChurnDraw
	saltEpochUpgrade
	saltEpochRealloc
)

// nonFTPOpenRate derives the global density of hosts that accept TCP/21
// without speaking FTP from the configured FTP-of-open rate: with r =
// FTPRateOfOpen, non-FTP open hosts are FTP·(1−r)/r spread over the scan
// space (paper: 21.8M open − 13.8M FTP over 3.68B scanned).
func (w *World) nonFTPOpenRate() float64 { return w.nonFTPRate }

func nonFTPOpenRateFor(p Params) float64 {
	r := p.FTPRateOfOpen
	if r <= 0 || r >= 1 {
		return 0
	}
	return float64(paperFTPServers) * (1 - r) / r / float64(paperIPsScanned)
}

// RobotsMode describes a host's robots.txt posture.
type RobotsMode int

// Robots postures.
const (
	RobotsNone RobotsMode = iota
	RobotsPartial
	RobotsExcludeAll
)

// HostTruth is the generator's ground truth for one address — everything
// decidable without building the filesystem. The analysis pipeline never
// sees this; tests compare pipeline output against it.
type HostTruth struct {
	IP         simnet.IP
	FTP        bool
	NonFTPOpen bool
	// Service is the non-FTP protocol the host speaks on port 21 when a
	// ServiceMix is configured (ServiceNone for FTP hosts and for worlds
	// without the service layer; see services.go).
	Service        ServiceClass
	AS             *asdb.AS
	PersonalityKey string
	Anonymous      bool
	Writable       bool
	FTPS           bool
	RequireTLS     bool
	CertName       string
	NAT            bool
	InternalIP     simnet.IP
	Exposed        bool
	Tree           treeKind
	Sensitive      bool
	Robots         RobotsMode
	HTTP           bool
	Scripting      bool
	Campaigns      []string
	RequestLimit   int
	HostName       string
	// Fault is the host's hostile personality (FaultNone for the well
	// behaved majority; see hostile.go).
	Fault FaultClass
}

// LatencyModel returns a deterministic per-pair connection-setup latency
// function: 5–150ms derived from both endpoints, so repeated connections
// between the same hosts observe stable RTTs. Plug into
// simnet.Network.Latency for wall-clock-realistic runs.
func (w *World) LatencyModel() func(src, dst simnet.IP) time.Duration {
	seed := w.Params.Seed
	return func(src, dst simnet.IP) time.Duration {
		h := splitmix64(derive(seed, uint32(src), 0x17a7e9c) ^ uint64(uint32(dst)))
		return 5*time.Millisecond + time.Duration(h%145)*time.Millisecond
	}
}

// ftpPresent decides whether an address runs FTP at the world's epoch. At
// Epoch 0 it is exactly the base density draw; each later epoch churns a
// ChurnRate fraction of addresses by re-rolling their presence at the same
// AS density, so hosts leave and appear at the stationary rate and the
// population stays calibrated at every epoch. Both Truth and Open route
// through this, so the scanner's presence answer always agrees with ground
// truth.
func (w *World) ftpPresent(prof *asProfile, u uint32) bool {
	if prof == nil {
		return false
	}
	seed := w.Params.Seed
	present := chance(derive(seed, u, saltFTP), prof.Density)
	if rate := w.Params.ChurnRate; rate > 0 {
		for k := uint64(1); k <= w.Params.Epoch; k++ {
			es := epochSeed(seed, k)
			if chance(derive(es, u, saltEpochChurn), rate) {
				present = chance(derive(es, u, saltEpochChurnDraw), prof.Density)
			}
		}
	}
	return present
}

// personalityHash returns the draw that selects a host's personality,
// upgraded through the world's epochs: each epoch an UpgradeRate fraction
// of hosts redraw their software from the AS mix (an upgrade or
// replacement), everyone else keeps what they ran.
func (w *World) personalityHash(u uint32) uint64 {
	seed := w.Params.Seed
	h := derive(seed, u, saltPers)
	if rate := w.Params.UpgradeRate; rate > 0 {
		for k := uint64(1); k <= w.Params.Epoch; k++ {
			eh := derive(epochSeed(seed, k), u, saltEpochUpgrade)
			if chance(eh, rate) {
				h = splitmix64(eh)
			}
		}
	}
	return h
}

// Truth derives the ground truth for an address. It is a pure function of
// (seed, ip): no allocation is cached.
func (w *World) Truth(ip simnet.IP) (HostTruth, bool) {
	t := HostTruth{IP: ip}
	prof := w.profileFor(ip)
	seed := w.Params.Seed
	u := uint32(ip)

	if !w.ftpPresent(prof, u) {
		if chance(derive(seed, u, saltNonFTP), w.nonFTPOpenRate()) {
			t.NonFTPOpen = true
			if prof != nil {
				t.AS = prof.AS
			}
			// With a service mix, the non-FTP host speaks a real
			// protocol — and can carry a transport fault personality,
			// so the identification stage meets the same adversarial
			// tail the enumerator does. Both draws use end-appended
			// salts: zero-mix worlds are bit-identical to pre-service
			// worlds.
			if w.Params.ServiceMix.Enabled() {
				t.Service = w.Params.ServiceMix.pick(derive(seed, u, saltService))
				t.Fault = w.faultClassFor(u)
			}
			return t, true
		}
		return HostTruth{}, false
	}

	t.FTP = true
	t.AS = prof.AS
	t.HostName = fmt.Sprintf("h%08x.example.net", u)
	t.Fault = w.faultClassFor(u)

	entry := prof.Mix.pick(w.personalityHash(u))
	t.PersonalityKey = entry.key
	pers := personality.ByKey(entry.key)

	anonRate := prof.AnonRate
	if entry.anonRate >= 0 {
		anonRate = entry.anonRate
	}
	t.Anonymous = chance(derive(seed, u, saltAnon), anonRate)

	// FTPS: implementation must support it and the operator must have
	// enabled it.
	if pers.Quirks.SupportsFTPS && chance(derive(seed, u, saltFTPS), w.Params.FTPSRate) {
		t.FTPS = true
		t.CertName = w.certNameFor(prof, pers, u)
		t.RequireTLS = chance(derive(seed, u, saltTLSReq), w.Params.FTPSRequireRate)
	}

	// NAT posture applies to consumer devices with the leak quirk.
	if pers.Quirks.PASVLeaksInternalIP && chance(derive(seed, u, saltNAT), w.Params.NATRate) {
		t.NAT = true
		h := derive(seed, u, saltInternal)
		t.InternalIP = simnet.IPFromOctets(192, 168, byte(h%5), byte(1+h/7%250))
	}

	t.HTTP = chance(derive(seed, u, saltHTTP), w.Params.HTTPOverlapRate)
	if t.HTTP {
		t.Scripting = chance(derive(seed, u, saltScript), w.Params.ScriptingRate/w.Params.HTTPOverlapRate)
	}

	if !t.Anonymous {
		return t, true
	}

	// The remaining attributes only matter for anonymously visible hosts.
	// Per-class exposure rates are calibrated for the default 24%
	// aggregate; the parameter scales them proportionally.
	t.Exposed = chance(derive(seed, u, saltExposed), exposureRate(pers)*w.Params.ExposureRate/0.24)
	t.Writable = chance(derive(seed, u, saltWritable), writableRate(pers, w.Params.AnonWritableRate))
	if t.Writable {
		t.Exposed = true
		t.Campaigns = pickCampaigns(derive(seed, u, saltCampaign))
	}
	t.Tree = chooseTree(pers, t.Exposed, derive(seed, u, saltTree), derive(seed, u, saltOSRoot))
	if t.Exposed && chance(derive(seed, u, saltDeep), w.Params.DeepTreeRate) {
		t.Tree = treeDeep
	}
	t.Sensitive = t.Exposed && chance(derive(seed, u, saltSensitive), sensitiveRate(pers))
	if chance(derive(seed, u, saltRobots), w.Params.RobotsRate) {
		if chance(derive(seed, u, saltRobots+100), w.Params.RobotsExcludeAllRate) {
			t.Robots = RobotsExcludeAll
		} else {
			t.Robots = RobotsPartial
		}
	}
	if h := derive(seed, u, saltLimit); chance(h, 0.03) {
		t.RequestLimit = 40 + pickN(h, 160)
	}
	return t, true
}

// Open reports whether an address answers on TCP/21, deriving only the
// presence decision (at most two hash draws and an AS lookup) instead of
// the full truth record. It agrees exactly with Truth's presence result and
// performs no allocation — this is the scanner's per-probe cost.
func (w *World) Open(ip simnet.IP) bool {
	if w.ftpPresent(w.profileFor(ip), uint32(ip)) {
		return true
	}
	return chance(derive(w.Params.Seed, uint32(ip), saltNonFTP), w.nonFTPRate)
}

// PortOpen implements simnet.PortScanner: discovery probes are answered
// from ground truth without taking any world lock or materializing the
// host. Hosts are built only when the enumerator actually connects
// (Lookup, via DialFrom).
func (w *World) PortOpen(ip simnet.IP, port uint16) bool {
	if port != 21 {
		return false
	}
	return w.Open(ip)
}

// certNameFor assigns the FTPS certificate: hosting providers share the AS
// wildcard, device families share their built-in, everything else draws a
// default or pool certificate.
func (w *World) certNameFor(prof *asProfile, pers *personality.Personality, u uint32) string {
	h := derive(w.Params.Seed, u, saltCert)
	if prof.CertName != "" {
		// Not every shared-hosting box carries the provider wildcard:
		// many keep the stack's default self-signed certificate, which
		// is what pushes the ecosystem's self-signed share toward the
		// paper's 50%.
		if chance(splitmix64(h^0x51ab), 0.45) {
			return "cert-localhost"
		}
		return prof.CertName
	}
	if name, ok := deviceCertNames[pers.Key]; ok {
		return name
	}
	// The "localhost" default dominates generic installs (Table XII).
	if chance(splitmix64(h), 0.30) {
		return "cert-localhost"
	}
	if len(w.uniqueCerts) == 0 {
		return "cert-localhost"
	}
	return w.uniqueCerts[pickN(h, len(w.uniqueCerts))]
}

// exposureRate is the probability an anonymous host's tree shows any data,
// by device class (§V: 24% of anonymous servers exposed data overall).
func exposureRate(pers *personality.Personality) float64 {
	switch {
	case pers.ProviderDeployed:
		return 0.08
	case pers.DeviceClass == personality.DevicePrinter:
		return 0.90
	case pers.DeviceClass == personality.DeviceNAS,
		pers.DeviceClass == personality.DeviceStorage,
		pers.DeviceClass == personality.DeviceHomeRouter:
		return 0.85
	case pers.Category == personality.CategoryHosted:
		return 0.16
	default:
		return 0.22
	}
}

// writableRate concentrates anonymous write access on generic servers and
// hosting accounts, as the campaign evidence in §VI suggests.
func writableRate(pers *personality.Personality, base float64) float64 {
	switch {
	case pers.ProviderDeployed:
		return base * 0.05
	case pers.DeviceClass == personality.DevicePrinter:
		return base * 0.1
	case pers.DeviceClass != personality.DeviceNone:
		return base * 0.5
	case pers.Category == personality.CategoryHosted:
		return base * 1.2
	default:
		return base * 1.5
	}
}

// sensitiveRate is the probability an exposed host leaks Table IX-class
// documents (≈5% of anonymous servers overall).
func sensitiveRate(pers *personality.Personality) float64 {
	switch {
	case pers.DeviceClass == personality.DeviceNAS,
		pers.DeviceClass == personality.DeviceStorage,
		pers.DeviceClass == personality.DeviceHomeRouter:
		return 0.38
	case pers.Category == personality.CategoryHosted:
		return 0.04
	case pers.ProviderDeployed:
		return 0.02
	default:
		return 0.16
	}
}

// chooseTree selects the filesystem profile.
func chooseTree(pers *personality.Personality, exposed bool, h, hOS uint64) treeKind {
	if !exposed {
		return treeEmpty
	}
	switch {
	case pers.Category == personality.CategoryHosted:
		return treeWebroot
	case pers.DeviceClass == personality.DevicePrinter:
		return treePrinterScans
	case pers.DeviceClass == personality.DeviceNAS || pers.DeviceClass == personality.DeviceStorage:
		if chance(hOS, 0.02) {
			return treeOSRootLinux
		}
		return treeNASPersonal
	case pers.DeviceClass == personality.DeviceHomeRouter && !pers.ProviderDeployed:
		return treeRouterUSB
	case pers.ProviderDeployed:
		return treeModemConfig
	case pers.Quirks.CaseInsensitive: // Windows servers
		if chance(hOS, 0.035) {
			return treeOSRootWindows
		}
		return treeGenericPub
	default:
		if chance(hOS, 0.016) {
			return treeOSRootLinux
		}
		return treeGenericPub
	}
}
