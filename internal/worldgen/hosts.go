package worldgen

import (
	"net"
	"path"
	"time"

	"ftpcloud/internal/campaigns"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// hostEntry is one materialized host. FTP hosts carry a live server whose
// filesystem persists across connections (so an attacker's upload is visible
// to a later crawl); non-FTP hosts carry a junk banner handler.
type hostEntry struct {
	truth   HostTruth
	handler simnet.Handler
}

// Listening implements simnet.Host.
func (h *hostEntry) Listening(port uint16) bool { return port == 21 }

// Handler implements simnet.Host.
func (h *hostEntry) Handler(port uint16) simnet.Handler {
	if port != 21 {
		return nil
	}
	return h.handler
}

// Lookup implements simnet.HostProvider. Scanner probes never reach it —
// they go through PortOpen, which answers from truth alone — so Lookup only
// runs when a connection is actually built. Materialization happens on that
// first real contact and is cached (sharded by IP) so filesystem state
// persists across connections.
func (w *World) Lookup(ip simnet.IP) simnet.Host {
	sh := &w.hosts[uint32(ip)&(hostShards-1)]
	sh.mu.Lock()
	if entry, ok := sh.m[ip]; ok {
		sh.mu.Unlock()
		return entry
	}
	sh.mu.Unlock()

	truth, present := w.Truth(ip)
	if !present {
		return nil
	}
	entry := w.materialize(truth)

	sh.mu.Lock()
	// Another goroutine may have materialized concurrently; keep the
	// first entry so filesystem state stays consistent.
	if prior, ok := sh.m[ip]; ok {
		sh.mu.Unlock()
		return prior
	}
	sh.m[ip] = entry
	sh.mu.Unlock()
	return entry
}

// MaterializedHosts reports how many hosts have been built (diagnostics and
// the lazy-vs-eager ablation). With truth-only discovery this equals the
// hosts the enumerator dialed, not the hosts the scanner probed.
func (w *World) MaterializedHosts() int {
	n := 0
	for i := range w.hosts {
		w.hosts[i].mu.Lock()
		n += len(w.hosts[i].m)
		w.hosts[i].mu.Unlock()
	}
	return n
}

// materialize builds the live host for a ground truth record.
func (w *World) materialize(t HostTruth) *hostEntry {
	if t.NonFTPOpen {
		if t.Service != ServiceNone {
			return &hostEntry{truth: t, handler: serviceHandler(t.Service, uint32(t.IP), w.Params.Seed)}
		}
		return &hostEntry{truth: t, handler: nonFTPHandler(uint32(t.IP), w.Params.Seed)}
	}

	// Application-level hostile personalities replace the server outright;
	// transport-level classes keep the real server and get their faults
	// from FaultFor via the network layer.
	switch t.Fault {
	case FaultGarbage:
		return &hostEntry{truth: t, handler: garbageHandler(uint32(t.IP), w.Params.Seed)}
	case FaultPrematureEOF:
		return &hostEntry{truth: t, handler: prematureEOFHandler()}
	}

	pers := personality.ByKey(t.PersonalityKey)
	fs := w.buildHostFS(t)

	cfg := ftpserver.Config{
		Pers:           pers,
		Driver:         ftpserver.NewVFSDriver(fs),
		HostName:       t.HostName,
		PublicIP:       t.IP,
		InternalIP:     t.InternalIP,
		AllowAnonymous: t.Anonymous,
		AnonWritable:   t.Writable,
		RequireTLS:     t.RequireTLS,
		RequestLimit:   t.RequestLimit,
		IdleTimeout:    30 * time.Second,
	}
	if t.CertName != "" {
		cfg.Cert = w.Certs.Get(t.CertName)
	}
	srv, err := ftpserver.New(cfg)
	if err != nil {
		// Config assembly is internal; a failure is a generator bug.
		panic("worldgen: building host server: " + err.Error())
	}
	return &hostEntry{truth: t, handler: srv.SimHandler()}
}

// buildHostFS constructs the filesystem, robots.txt, and infections.
func (w *World) buildHostFS(t HostTruth) *vfs.FS {
	treeSeed := derive(w.Params.Seed, uint32(t.IP), saltTreeSeed)
	fs := buildTree(t.Tree, treeSeed, t.Sensitive)
	r := newRNG(treeSeed ^ 0xbeef)

	switch t.Robots {
	case RobotsExcludeAll:
		putFile(fs, "/robots.txt", []byte("User-agent: *\nDisallow: /\n"))
	case RobotsPartial:
		putFile(fs, "/robots.txt", []byte("User-agent: *\nDisallow: /private\nDisallow: /tmp\n"))
	}

	for _, key := range t.Campaigns {
		plantCampaign(fs, r, key)
	}
	return fs
}

func putFile(fs *vfs.FS, p string, content []byte) {
	// Campaign artifacts arrived via anonymous upload, so they carry the
	// attribution that lets approval-gated servers (Pure-FTPd) confirm
	// them with the RETR refusal the paper's reference set keys on.
	n, err := fs.PutUpload(p, content, vfs.Perm644, true, "ftp", true)
	if err != nil {
		// The parent always exists for root-level plants; deeper plants
		// fall back to the root.
		base := path.Base(p)
		n, err = fs.PutUpload("/"+base, content, vfs.Perm644, true, "ftp", true)
	}
	if err == nil {
		stampPlanted(n)
	}
}

// stampPlanted dates a planted node at the world epoch instead of the
// wall-clock time vfs gives new nodes, so a host's listing — and the
// census ledger — is the same whenever the host is materialized.
func stampPlanted(n *vfs.Node) { n.MTime = worldEpoch }

// pickCampaigns selects the infections for a writable host. Probabilities
// follow §VI's relative prevalence among the ~19.4K writable servers.
func pickCampaigns(h uint64) []string {
	var keys []string
	draw := func(salt uint64, p float64) bool {
		return chance(splitmix64(h^salt), p)
	}
	if draw(1, 0.70) { // write probes: the dominant evidence class
		probes := []string{
			campaigns.KeyProbeW0000000t,
			campaigns.KeyProbeSjutd,
			campaigns.KeyProbeHelloWorld,
		}
		keys = append(keys, probes[pickN(splitmix64(h^2), len(probes))])
	}
	if draw(3, 0.25) {
		keys = append(keys, campaigns.KeyWaReZ)
	}
	if draw(4, 0.108) {
		keys = append(keys, campaigns.KeyCrackFlier)
	}
	if draw(5, 0.092) {
		ddos := []string{campaigns.KeyDDoSHistory, campaigns.KeyDDoSPhzLtoxn}
		keys = append(keys, ddos[pickN(splitmix64(h^6), len(ddos))])
	}
	if draw(7, 0.065) {
		keys = append(keys, campaigns.KeyFtpchk3)
	}
	if draw(8, 0.058) {
		keys = append(keys, campaigns.KeyHolyBible)
	}
	if draw(9, 0.037) {
		keys = append(keys, campaigns.KeyRATEval)
	}
	return keys
}

// plantCampaign drops one campaign's artifacts into a filesystem the way
// its operators do: probes and fliers at the login root, RATs sprinkled
// toward web roots, WaReZ as timestamped directories.
func plantCampaign(fs *vfs.FS, r *rng, key string) {
	switch key {
	case campaigns.KeyWaReZ:
		for i, n := 0, r.rangeInt(1, 5); i < n; i++ {
			name := warezDirName(r)
			dir, err := fs.Mkdir("/"+name, vfs.Perm777)
			if err != nil {
				continue
			}
			stampPlanted(dir)
			// Many WaReZ drops were found already emptied (§VI.C).
			if r.chance(0.4) {
				if f, err := fs.Put("/"+name+"/release.r"+twoDigits(r.intn(100)),
					[]byte("synthetic warez payload"), vfs.Perm644, true); err == nil {
					stampPlanted(f)
				}
			}
		}
		return
	case campaigns.KeyFtpchk3:
		c := campaigns.ByKey(key)
		// Infection stage determines which artifacts are present.
		stage := 1 + r.intn(len(c.Artifacts))
		for _, a := range c.Artifacts {
			if a.Stage <= stage {
				putFile(fs, "/"+a.Name, []byte(a.Content))
			}
		}
		return
	}

	c := campaigns.ByKey(key)
	if c == nil {
		return
	}
	for _, a := range c.Artifacts {
		target := "/" + a.Name
		if key == campaigns.KeyRATEval {
			// RATs are uploaded across the tree to improve the odds of
			// landing in a web root.
			if dir := pickDir(fs, r); dir != "/" {
				target = dir + "/" + a.Name
			}
			putFile(fs, "/"+a.Name, []byte(a.Content))
		}
		putFile(fs, target, []byte(a.Content))
	}
}

// pickDir selects a random existing directory.
func pickDir(fs *vfs.FS, r *rng) string {
	var dirs []string
	fs.Root().Walk("/", func(p string, n *vfs.Node) bool {
		if n.IsDir {
			dirs = append(dirs, p)
		}
		return len(dirs) < 64
	})
	if len(dirs) == 0 {
		return "/"
	}
	return dirs[r.intn(len(dirs))]
}

func warezDirName(r *rng) string {
	return twoDigits(r.rangeInt(4, 15)) + twoDigits(r.rangeInt(1, 12)) +
		twoDigits(r.rangeInt(1, 28)) + twoDigits(r.intn(24)) +
		twoDigits(r.intn(60)) + twoDigits(r.intn(60)) + "p"
}

func twoDigits(n int) string {
	return string([]byte{byte('0' + n/10%10), byte('0' + n%10)})
}

// nonFTPHandler mimics the 8M hosts that accept TCP/21 without speaking
// FTP: most emit a non-FTP banner, the rest close silently.
func nonFTPHandler(ip uint32, seed uint64) simnet.Handler {
	return simnet.HandlerFunc(func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		h := derive(seed, ip, saltNonFTP+1)
		switch h % 3 {
		case 0:
			conn.Write([]byte("SSH-2.0-OpenSSH_5.3\r\n"))
		case 1:
			conn.Write([]byte("\x00\x00\x00\x00garbage"))
		default:
			// Silent close.
		}
	})
}
