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

// hostEntry is one materialized host. FTP hosts carry a live server and
// the filesystem it serves; non-FTP hosts carry a junk banner handler.
//
// A built host is resident — in its shard's map — only while something
// holds it. A connection being served pins it, and a write that made its
// filesystem differ from its truth pins it for good, so an attacker's
// upload is visible to a later crawl. A clean host is evicted when its last
// served connection ends, and rebuilt from truth on its next contact: a
// host is a pure function of (seed, epoch, ip), so the rebuild serves what
// the first build did.
type hostEntry struct {
	w       *World
	truth   HostTruth
	handler simnet.Handler
	// fs is an FTP host's filesystem (nil for the others) and builtGen
	// its generation once the build, planted files included, was done.
	fs       *vfs.FS
	builtGen uint64
	// pins counts the connections being served; guarded by the shard
	// lock.
	pins int
}

// dirty reports whether a write has moved the host away from its truth.
func (h *hostEntry) dirty() bool { return h.fs != nil && h.fs.Generation() != h.builtGen }

// Listening implements simnet.Host. A dial to any other port is refused
// without being served, so it ends there: a clean host that no connection
// pins is evicted, as after a served connection.
func (h *hostEntry) Listening(port uint16) bool {
	if port == 21 {
		return true
	}
	sh := h.w.shard(h.truth.IP)
	sh.mu.Lock()
	h.w.evictLocked(sh, h)
	sh.mu.Unlock()
	return false
}

// Handler implements simnet.Host. simnet calls it once it has committed to
// serving a connection, so this is where the host is pinned: under the
// shard lock, the IP's resident entry is pinned and returned as the
// connection's handler. When h was evicted since Lookup returned it, a
// host built since for the IP serves instead, or h is re-admitted; either
// way no two entries for one IP serve connections at once, so no write is
// lost to an entry the map no longer holds. ServeConn unpins.
func (h *hostEntry) Handler(port uint16) simnet.Handler {
	if port != 21 {
		return nil
	}
	w, ip := h.w, h.truth.IP
	sh := w.shard(ip)
	sh.mu.Lock()
	e, ok := sh.m[ip]
	if !ok {
		e = h
		w.admitLocked(sh, h)
	}
	e.pins++
	w.serving.Add(1)
	sh.mu.Unlock()
	return e
}

// ServeConn implements simnet.Handler for a pinned entry: it serves the
// connection, then unpins the entry and evicts it if nothing else holds
// it.
func (h *hostEntry) ServeConn(nw *simnet.Network, conn net.Conn) {
	defer h.unpin()
	h.handler.ServeConn(nw, conn)
}

func (h *hostEntry) unpin() {
	w := h.w
	sh := w.shard(h.truth.IP)
	sh.mu.Lock()
	h.pins--
	w.evictLocked(sh, h)
	sh.mu.Unlock()
	if w.serving.Add(-1) == 0 {
		w.idleMu.Lock()
		w.idle.Broadcast()
		w.idleMu.Unlock()
	}
}

// shard returns the map shard holding ip.
func (w *World) shard(ip simnet.IP) *hostShard { return &w.hosts[uint32(ip)&(hostShards-1)] }

// admitLocked makes h its IP's resident entry; sh.mu is held.
func (w *World) admitLocked(sh *hostShard, h *hostEntry) {
	sh.m[h.truth.IP] = h
	w.m.materialized.Inc()
	w.m.resident.Inc()
}

// evictLocked drops h from the resident set unless a connection pins it, a
// write has made it dirty, or it is no longer the resident entry; sh.mu is
// held.
func (w *World) evictLocked(sh *hostShard, h *hostEntry) {
	if h.pins > 0 || h.dirty() || sh.m[h.truth.IP] != h {
		return
	}
	delete(sh.m, h.truth.IP)
	w.m.evicted.Inc()
	w.m.resident.Dec()
}

// Lookup implements simnet.HostProvider. Scanner probes never reach it —
// they go through PortOpen, which answers from truth alone — so Lookup only
// runs when a connection is actually built. It returns the IP's resident
// host, building it from truth if none is. A host Lookup builds stays
// resident until a connection to it has been served and closed (or a dial
// to it refused); Lookup itself pins nothing.
func (w *World) Lookup(ip simnet.IP) simnet.Host {
	sh := w.shard(ip)
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
	w.admitLocked(sh, entry)
	sh.mu.Unlock()
	return entry
}

// MaterializedHosts reports how many built hosts are resident: those a
// connection is being served by, those a write has made differ from their
// truth, and those Lookup built that no connection has closed yet. After a
// census it counts the written hosts alone; the world.materialized counter
// (BindMetrics) counts every host that entered the resident set.
func (w *World) MaterializedHosts() int {
	n := 0
	for i := range w.hosts {
		w.hosts[i].mu.Lock()
		n += len(w.hosts[i].m)
		w.hosts[i].mu.Unlock()
	}
	return n
}

// WaitIdle blocks until no connection to a world host is being served. A
// client's close reaches the serving goroutine a moment later, so a caller
// that has closed its last connection waits here before it reads the
// resident set.
func (w *World) WaitIdle() {
	w.idleMu.Lock()
	for w.serving.Load() > 0 {
		w.idle.Wait()
	}
	w.idleMu.Unlock()
}

// materialize builds the live host for a ground truth record.
func (w *World) materialize(t HostTruth) *hostEntry {
	if t.NonFTPOpen {
		if t.Service != ServiceNone {
			return &hostEntry{w: w, truth: t, handler: serviceHandler(t.Service, uint32(t.IP), w.Params.Seed)}
		}
		return &hostEntry{w: w, truth: t, handler: nonFTPHandler(uint32(t.IP), w.Params.Seed)}
	}

	// Application-level hostile personalities replace the server outright;
	// transport-level classes keep the real server and get their faults
	// from FaultFor via the network layer.
	switch t.Fault {
	case FaultGarbage:
		return &hostEntry{w: w, truth: t, handler: garbageHandler(uint32(t.IP), w.Params.Seed)}
	case FaultPrematureEOF:
		return &hostEntry{w: w, truth: t, handler: prematureEOFHandler()}
	}

	pers := personality.ByKey(t.PersonalityKey)
	fs := w.buildHostFS(t)

	cfg := ftpserver.Config{
		Pers:           pers,
		Driver:         fs,
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
	return &hostEntry{w: w, truth: t, handler: srv.SimHandler(), fs: fs, builtGen: fs.Generation()}
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
