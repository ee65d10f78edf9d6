package honeypot

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// Honeybuckets differentiated the honeypots it deployed — different names,
// different contents, different writability — and compared what scanners did
// to each. This file is that differentiation for the FTP fleet: a LureMix
// assigns every honeypot a lure strategy, and the strategy (plus a
// per-honeypot salt derived from the fleet seed) decides its personality,
// hostname, bait tree, and whether anonymous writes are allowed. The same
// (seed, index) always yields the same honeypot, so fleets are reproducible.

// LureStrategy names one bait posture.
type LureStrategy string

// Lure strategies.
const (
	// LureWebroot is the paper's §VIII posture: a writable anonymous
	// server with web-root bait directories (cgi-bin, www, public_html).
	LureWebroot LureStrategy = "webroot"
	// LureBackup poses as a forgotten backup dump: database exports and
	// tarballs with dated names, writable incoming directory.
	LureBackup LureStrategy = "backup"
	// LureMedia poses as a personal media library, world-writable.
	LureMedia LureStrategy = "media"
	// LureVault poses as a credential-rich config share — the juiciest
	// read bait — but is read-only, so write probes fail and get logged.
	LureVault LureStrategy = "vault"
	// LureBare is an empty writable server: no bait at all, the control
	// group that measures blind scanning.
	LureBare LureStrategy = "bare"
)

// LureMix weights the strategies across a fleet. The zero value is invalid;
// use DefaultLureMix or ParseLureMix.
type LureMix struct {
	Webroot float64
	Backup  float64
	Media   float64
	Vault   float64
	Bare    float64
}

// DefaultLureMix leans on the paper's webroot posture while keeping every
// strategy represented: webroot=4, backup=2, media=2, vault=1, bare=1.
func DefaultLureMix() LureMix {
	return LureMix{Webroot: 4, Backup: 2, Media: 2, Vault: 1, Bare: 1}
}

// total returns the summed weight.
func (m LureMix) total() float64 {
	return m.Webroot + m.Backup + m.Media + m.Vault + m.Bare
}

// ParseLureMix parses "webroot=4,backup=2,media=2,vault=1,bare=1". Omitted
// strategies get weight zero; an empty string means DefaultLureMix.
func ParseLureMix(s string) (LureMix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultLureMix(), nil
	}
	var m LureMix
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("honeypot: lure mix term %q: want strategy=weight", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("honeypot: lure mix weight %q", kv[1])
		}
		switch LureStrategy(strings.ToLower(kv[0])) {
		case LureWebroot:
			m.Webroot = w
		case LureBackup:
			m.Backup = w
		case LureMedia:
			m.Media = w
		case LureVault:
			m.Vault = w
		case LureBare:
			m.Bare = w
		default:
			return m, fmt.Errorf("honeypot: unknown lure strategy %q", kv[0])
		}
	}
	if m.total() <= 0 {
		return m, fmt.Errorf("honeypot: lure mix has no weight")
	}
	return m, nil
}

// mix64 is the splitmix64 finalizer; all per-honeypot draws flow through it
// so fleets derive deterministically from (seed, index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// honeypotSalt derives honeypot i's private randomness from the fleet seed.
func honeypotSalt(seed uint64, i int) uint64 {
	return mix64(seed ^ mix64(uint64(i)))
}

// unitFloat maps a salt to [0,1).
func unitFloat(salt uint64) float64 {
	return float64(salt>>11) / float64(uint64(1)<<53)
}

// pickLure draws a strategy from the mix.
func pickLure(m LureMix, salt uint64) LureStrategy {
	r := unitFloat(salt) * m.total()
	for _, c := range []struct {
		s LureStrategy
		w float64
	}{
		{LureWebroot, m.Webroot}, {LureBackup, m.Backup},
		{LureMedia, m.Media}, {LureVault, m.Vault}, {LureBare, m.Bare},
	} {
		if r < c.w {
			return c.s
		}
		r -= c.w
	}
	return LureWebroot
}

// lureProfile is everything a strategy decides about one honeypot.
type lureProfile struct {
	personality string
	hostname    string
	writable    bool
	fs          *vfs.FS
}

// buildLure materializes honeypot i's bait from its strategy and salt.
func buildLure(strategy LureStrategy, i int, salt uint64) lureProfile {
	pick := func(keys ...string) string {
		return keys[salt%uint64(len(keys))]
	}
	switch strategy {
	case LureBackup:
		return lureProfile{
			personality: pick(personality.KeyVsftpd302, personality.KeyVsftpd235),
			hostname:    fmt.Sprintf("backup%02d.corp.example", i),
			writable:    true,
			fs:          backupFS(salt),
		}
	case LureMedia:
		return lureProfile{
			personality: pick(personality.KeyPureFTPd1036, personality.KeyGenericUnix),
			hostname:    fmt.Sprintf("media%02d.example.net", i),
			writable:    true,
			fs:          mediaFS(salt),
		}
	case LureVault:
		return lureProfile{
			personality: personality.KeyWuFTPd262,
			hostname:    fmt.Sprintf("files%02d.internal.example", i),
			writable:    false,
			fs:          vaultFS(salt),
		}
	case LureBare:
		return lureProfile{
			personality: pick(personality.KeyGenericUnix, personality.KeyFileZilla0941),
			hostname:    fmt.Sprintf("ftp%02d.example.org", i),
			writable:    true,
			fs:          vfs.New(vfs.NewDir("/", vfs.Perm777)),
		}
	default: // LureWebroot — the paper's posture.
		return lureProfile{
			personality: pick(personality.KeyProFTPD135, personality.KeyProFTPD134a),
			hostname:    fmt.Sprintf("honeypot-%d.example.edu", i),
			writable:    true,
			fs:          webrootFS(),
		}
	}
}

// baitSize derives a plausible salted file size.
func baitSize(salt uint64, min, spread int64) int64 {
	return min + int64(salt%uint64(spread))
}

// webrootFS builds the paper's bait tree: writable root plus the web-root
// directories the paper populated after observing attackers' blind
// traversals (cgi-bin, www, public_html).
func webrootFS() *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm777)
	for _, name := range []string{"cgi-bin", "www", "public_html", "incoming"} {
		d := root.Add(vfs.NewDir(name, vfs.Perm777))
		d.Add(vfs.NewFile("index.html", vfs.Perm644, 1024))
	}
	docs := root.Add(vfs.NewDir("files", vfs.Perm755))
	docs.Add(vfs.NewFile("readme.txt", vfs.Perm644, 512))
	return vfs.New(root)
}

// backupFS builds the backup-dump bait tree.
func backupFS(salt uint64) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm777)
	backups := root.Add(vfs.NewDir("backups", vfs.Perm755))
	day := 1 + salt%27
	backups.Add(vfs.NewFile(fmt.Sprintf("db-201510%02d.sql.gz", day), vfs.Perm644, baitSize(salt, 1<<20, 1<<24)))
	backups.Add(vfs.NewFile(fmt.Sprintf("site-201510%02d.tar.gz", day), vfs.Perm644, baitSize(mix64(salt), 1<<22, 1<<25)))
	root.Add(vfs.NewDir("archive", vfs.Perm755)).
		Add(vfs.NewFile("users.csv", vfs.Perm644, baitSize(salt^0x5c, 4096, 1<<16)))
	root.Add(vfs.NewDir("incoming", vfs.Perm777))
	return vfs.New(root)
}

// mediaFS builds the media-library bait tree.
func mediaFS(salt uint64) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm777)
	movies := root.Add(vfs.NewDir("movies", vfs.Perm755))
	movies.Add(vfs.NewFile(fmt.Sprintf("holiday-%03d.mp4", salt%900), vfs.Perm644, baitSize(salt, 1<<26, 1<<28)))
	music := root.Add(vfs.NewDir("music", vfs.Perm755))
	music.Add(vfs.NewFile("collection.m3u", vfs.Perm644, baitSize(salt^0x11, 512, 8192)))
	root.Add(vfs.NewDir("upload", vfs.Perm777))
	return vfs.New(root)
}

// vaultFS builds the credential-vault bait tree (served read-only).
func vaultFS(salt uint64) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	cfg := root.Add(vfs.NewDir("config", vfs.Perm755))
	cfg.Add(vfs.NewFile("wp-config.php.bak", vfs.Perm644, baitSize(salt, 2048, 4096)))
	cfg.Add(vfs.NewFile(".env", vfs.Perm644, baitSize(salt^0x2f, 256, 2048)))
	root.Add(vfs.NewFile("passwords.xlsx", vfs.Perm644, baitSize(salt^0x77, 8192, 1<<16)))
	return vfs.New(root)
}

// FleetConfig sizes and shapes a differentiated honeypot fleet.
type FleetConfig struct {
	// Base is the first honeypot address; honeypot i listens at Base+i.
	Base simnet.IP
	// Count is the fleet size.
	Count int
	// Seed drives every per-honeypot draw.
	Seed uint64
	// Mix weights the lure strategies; the zero value means DefaultLureMix.
	Mix LureMix
	// Cert enables AUTH TLS on every honeypot when non-nil.
	Cert *certs.Cert
	// Acc receives the streamed events; nil allocates a fresh accumulator.
	Acc *Accumulator
	// Events, when non-nil, additionally persists every event as JSONL.
	Events *EventStream
	// Now is the fleet clock for deploy stamps and event times; nil means
	// time.Now.
	Now func() time.Time
	// IdleTimeout bounds session inactivity; zero means 20s.
	IdleTimeout time.Duration
	// Metrics, when non-nil, wires server and accumulator counters.
	Metrics *obs.Registry
}

// DeployFleet installs a differentiated honeypot fleet on the provider:
// every honeypot draws its lure strategy, personality, hostname, bait tree,
// and writability from its salt, registers with the streaming accumulator,
// and (optionally) tees events into a JSONL stream.
func DeployFleet(provider *simnet.StaticProvider, cfg FleetConfig) (*Deployment, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("honeypot: count must be positive")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultLureMix()
	}
	if cfg.Acc == nil {
		cfg.Acc = NewAccumulator()
	}
	if cfg.Metrics != nil {
		cfg.Acc.BindMetrics(cfg.Metrics)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	idle := cfg.IdleTimeout
	if idle == 0 {
		idle = 20 * time.Second
	}
	d := &Deployment{
		Lures: make(map[simnet.IP]LureStrategy, cfg.Count),
		Acc:   cfg.Acc,
	}
	for i := 0; i < cfg.Count; i++ {
		ip := simnet.IP(uint64(cfg.Base) + uint64(i))
		salt := honeypotSalt(cfg.Seed, i)
		strategy := pickLure(cfg.Mix, salt)
		prof := buildLure(strategy, i, mix64(salt))

		ipStr := ip.String()
		cfg.Acc.Register(ipStr, strategy, now())
		// The stream observer runs BEFORE the accumulator: once an event
		// has folded into Acc it is durably in the stream too, so
		// Acc.Quiesce doubles as the close barrier for the event stream.
		var observers []ftpserver.Observer
		if cfg.Events != nil {
			observers = append(observers, cfg.Events.Observer(ipStr, strategy))
		}
		observers = append(observers, cfg.Acc.Observer(ipStr))

		srv, err := ftpserver.New(ftpserver.Config{
			Pers:           personality.ByKey(prof.personality),
			Driver:         prof.fs,
			HostName:       prof.hostname,
			PublicIP:       ip,
			AllowAnonymous: true,
			AnonWritable:   prof.writable,
			Users:          map[string]string{}, // real logins fail but are recorded
			Cert:           cfg.Cert,
			Observer:       ftpserver.MultiObserver(observers...),
			Now:            cfg.Now,
			IdleTimeout:    idle,
			Metrics:        cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("honeypot: building server %d: %w", i, err)
		}
		provider.Add(ip, 21, srv.SimHandler())
		d.IPs = append(d.IPs, ip)
		d.Lures[ip] = strategy
	}
	return d, nil
}
