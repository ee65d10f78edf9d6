package honeypot

import (
	"context"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/campaigns"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/obs"
)

// This file is the streaming core of the honeypot apparatus. Buffering
// every event and summarizing after the fact is fine for 8 honeypots and a
// few thousand sessions, fatal at Honeybuckets scale (hundreds of
// honeypots, millions of sessions). The Accumulator mirrors
// analysis.Aggregator's shape instead: per-event incremental folds,
// a plain-data Snapshot, additive Merge, and deterministic finalizers. Live
// state is bounded by the *population* (honeypots, attacking IPs, credential
// pairs), never by the session count.

// Clock supplies event timestamps; honeypot fleets inject one so interaction
// timelines are reproducible run to run.
type Clock func() time.Time

// SimClock returns a deterministic logical clock: every reading advances the
// clock by step from start. With a single-threaded campaign the resulting
// timeline is byte-reproducible; with concurrency it stays deterministic in
// distribution (each reading is distinct and monotone).
func SimClock(start time.Time, step time.Duration) Clock {
	var ticks atomic.Int64
	return func() time.Time {
		n := ticks.Add(1)
		return start.Add(time.Duration(n) * step)
	}
}

// remoteState tracks what one attacking IP did across the whole fleet.
type remoteState struct {
	spokeFTP  bool
	httpGet   bool
	traversed bool
	listed    bool
	authTLS   bool
	cve       bool
	rootLogin bool
	uploads   int
	mkdirs    int
}

// credState tracks one username:password pair and the distinct sources that
// tried it — the raw material of credential-reuse clustering.
type credState struct {
	count   int
	sources map[string]bool
}

// hpState is one honeypot's timeline state: lure identity, deployment time,
// and the earliest observed interaction.
type hpState struct {
	lure     LureStrategy
	deployed time.Time
	first    time.Time
	probed   bool
	sessions int
}

// campState is one attributed campaign's tally.
type campState struct {
	events  int
	sources map[string]bool
}

// accMetrics is the registry view of the accumulator, resolved once.
type accMetrics struct {
	events   *obs.Counter
	sessions *obs.Counter
	uploads  *obs.Counter
	deletes  *obs.Counter
	creds    *obs.Counter
	remotes  *obs.Gauge
}

// Accumulator folds honeypot session events into §VIII statistics and
// Honeybuckets-style timelines as they happen. It is safe for concurrent
// sessions across many honeypots; per-event work is one short critical
// section over population-bounded maps.
type Accumulator struct {
	mu        sync.Mutex
	events    uint64
	sessions  uint64
	closed    uint64
	remotes   map[string]*remoteState
	creds     map[string]*credState
	bounce    map[string]int
	bounceN   int
	uploads   int
	deletes   int
	anonOK    int
	honeypots map[string]*hpState
	camps     map[string]*campState
	m         accMetrics
	bound     bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		remotes:   make(map[string]*remoteState),
		creds:     make(map[string]*credState),
		bounce:    make(map[string]int),
		honeypots: make(map[string]*hpState),
		camps:     make(map[string]*campState),
	}
}

// BindMetrics mirrors the accumulator's folds into registry instruments:
// honeypot.events (every observer event), honeypot.sessions (connects),
// honeypot.uploads / honeypot.deletes (successful writes), honeypot.creds
// (distinct credential pairs), and the honeypot.remotes gauge (distinct
// attacking IPs seen). Bind before traffic flows.
func (a *Accumulator) BindMetrics(reg *obs.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m = accMetrics{
		events:   reg.Counter("honeypot.events"),
		sessions: reg.Counter("honeypot.sessions"),
		uploads:  reg.Counter("honeypot.uploads"),
		deletes:  reg.Counter("honeypot.deletes"),
		creds:    reg.Counter("honeypot.creds"),
		remotes:  reg.Gauge("honeypot.remotes"),
	}
	a.bound = true
}

// Register adds one honeypot's identity before its traffic flows: the lure
// it runs and the moment it went live (the zero of its time-to-first-probe
// measurement).
func (a *Accumulator) Register(honeypotIP string, lure LureStrategy, deployed time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.honeypots[honeypotIP] = &hpState{lure: lure, deployed: deployed}
}

// Observer returns the per-honeypot streaming observer: an ftpserver
// Observer that tags the honeypot's identity onto every event and folds it
// into the shared accumulator. No event is ever retained.
func (a *Accumulator) Observer(honeypotIP string) ftpserver.Observer {
	return &streamObserver{acc: a, ip: honeypotIP}
}

type streamObserver struct {
	acc *Accumulator
	ip  string
}

func (o *streamObserver) Event(e ftpserver.Event) { o.acc.observe(o.ip, e) }

// observe folds one event. Deletes count successful EventDelete
// observations (not every DELE command), and nothing here depends on
// arrival order, so a fold of the same events in any order — live, or
// re-read from the event stream — yields the same tables byte for byte.
func (a *Accumulator) observe(honeypotIP string, e ftpserver.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	if a.bound {
		a.m.events.Inc()
	}

	if hp, ok := a.honeypots[honeypotIP]; ok {
		if !hp.probed || e.Time.Before(hp.first) {
			hp.probed, hp.first = true, e.Time
		}
		if e.Kind == ftpserver.EventConnect {
			hp.sessions++
		}
	}

	rs, ok := a.remotes[e.RemoteIP]
	if !ok {
		rs = &remoteState{}
		a.remotes[e.RemoteIP] = rs
		if a.bound {
			a.m.remotes.Set(int64(len(a.remotes)))
		}
	}

	switch e.Kind {
	case ftpserver.EventConnect:
		a.sessions++
		if a.bound {
			a.m.sessions.Inc()
		}
	case ftpserver.EventDisconnect:
		a.closed++
	case ftpserver.EventCommand:
		switch e.Command {
		case "GET", "POST", "HEAD":
			rs.httpGet = true
		case "CWD", "CDUP":
			rs.spokeFTP = true
			rs.traversed = true
		case "LIST", "NLST":
			rs.spokeFTP = true
			rs.listed = true
		case "AUTH":
			rs.spokeFTP = true
			rs.authTLS = true
		case "SITE":
			rs.spokeFTP = true
			upper := strings.ToUpper(e.Arg)
			if strings.HasPrefix(upper, "CPFR") || strings.HasPrefix(upper, "CPTO") {
				rs.cve = true
				a.attribute(campaigns.KeyCVEModCopy, e.RemoteIP)
			}
		case "MKD", "XMKD":
			rs.spokeFTP = true
			rs.mkdirs++
			if key := campaigns.AttributeMkdir(path.Base(e.Arg)); key != "" {
				a.attribute(key, e.RemoteIP)
			}
		default:
			rs.spokeFTP = true
		}
	case ftpserver.EventLoginOK:
		if e.Detail == "anonymous" {
			a.anonOK++
		}
	case ftpserver.EventLoginFail:
		if e.User != "" || e.Pass != "" {
			pair := e.User + ":" + e.Pass
			cs, ok := a.creds[pair]
			if !ok {
				cs = &credState{sources: make(map[string]bool, 1)}
				a.creds[pair] = cs
				if a.bound {
					a.m.creds.Inc()
				}
			}
			cs.count++
			cs.sources[e.RemoteIP] = true
		}
		if e.User == "root" && e.Pass == "" {
			rs.rootLogin = true
			a.attribute(campaigns.KeySeagateRoot, e.RemoteIP)
		}
	case ftpserver.EventUpload:
		rs.uploads++
		a.uploads++
		if a.bound {
			a.m.uploads.Inc()
		}
		a.attribute(campaigns.AttributeUpload(path.Base(e.Path)), e.RemoteIP)
	case ftpserver.EventDelete:
		a.deletes++
		if a.bound {
			a.m.deletes.Inc()
		}
	case ftpserver.EventPortBounceAttempt:
		a.bounceN++
		a.bounce[e.Detail]++
		a.attribute(campaigns.KeyPortBounce, e.RemoteIP)
	}
}

// attribute tallies one campaign observation under a.mu.
func (a *Accumulator) attribute(key, source string) {
	cs, ok := a.camps[key]
	if !ok {
		cs = &campState{sources: make(map[string]bool, 1)}
		a.camps[key] = cs
	}
	cs.events++
	cs.sources[source] = true
}

// Events returns the total number of folded events.
func (a *Accumulator) Events() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events
}

// Sessions returns the number of observed connects.
func (a *Accumulator) Sessions() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sessions
}

// Closed returns the number of observed disconnects.
func (a *Accumulator) Closed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Quiesce blocks until every honeypot session has fully torn down: at
// least `dialed` connects observed and a disconnect folded for each
// connect. Session events arrive from server goroutines that outlive the
// attacker's dial, so a fleet run returning does not mean the stream is
// done; snapshotting a report or closing an event stream before Quiesce
// races the teardown tail. Returns false if ctx expires first.
func (a *Accumulator) Quiesce(ctx context.Context, dialed uint64) bool {
	for {
		a.mu.Lock()
		done := a.sessions >= dialed && a.closed >= a.sessions
		a.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// --- Snapshot / Merge -----------------------------------------------------

// RemoteSnap is one attacking IP's state as plain data.
type RemoteSnap struct {
	SpokeFTP  bool
	HTTPGet   bool
	Traversed bool
	Listed    bool
	AuthTLS   bool
	CVE       bool
	RootLogin bool
	Uploads   int
	Mkdirs    int
}

// CredSnap is one credential pair's tally.
type CredSnap struct {
	Count   int
	Sources map[string]bool
}

// HoneypotSnap is one honeypot's timeline state.
type HoneypotSnap struct {
	Lure     LureStrategy
	Deployed time.Time
	First    time.Time
	Probed   bool
	Sessions int
}

// CampaignSnap is one attributed campaign's tally.
type CampaignSnap struct {
	Events  int
	Sources map[string]bool
}

// Snapshot is an Accumulator frozen as plain data, mergeable with snapshots
// of disjoint traffic the way analysis.Snapshot merges shard aggregates:
// every field is an additive fold (sets union, flags OR, counters add,
// first-probe times take the minimum), so merge order cannot change any
// finalized table.
type Snapshot struct {
	Events         uint64
	Sessions       uint64
	Closed         uint64
	Uploads        int
	Deletes        int
	AnonLogins     int
	BounceAttempts int
	Remotes        map[string]RemoteSnap
	Creds          map[string]CredSnap
	BounceTargets  map[string]int
	Honeypots      map[string]HoneypotSnap
	Campaigns      map[string]CampaignSnap
}

// Snapshot captures the accumulator's state as plain data. Safe to call
// concurrently with observation; the snapshot is a consistent point-in-time
// copy.
func (a *Accumulator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Snapshot{
		Events:         a.events,
		Sessions:       a.sessions,
		Closed:         a.closed,
		Uploads:        a.uploads,
		Deletes:        a.deletes,
		AnonLogins:     a.anonOK,
		BounceAttempts: a.bounceN,
		Remotes:        make(map[string]RemoteSnap, len(a.remotes)),
		Creds:          make(map[string]CredSnap, len(a.creds)),
		BounceTargets:  make(map[string]int, len(a.bounce)),
		Honeypots:      make(map[string]HoneypotSnap, len(a.honeypots)),
		Campaigns:      make(map[string]CampaignSnap, len(a.camps)),
	}
	for ip, rs := range a.remotes {
		s.Remotes[ip] = RemoteSnap{
			SpokeFTP: rs.spokeFTP, HTTPGet: rs.httpGet, Traversed: rs.traversed,
			Listed: rs.listed, AuthTLS: rs.authTLS, CVE: rs.cve,
			RootLogin: rs.rootLogin, Uploads: rs.uploads, Mkdirs: rs.mkdirs,
		}
	}
	for pair, cs := range a.creds {
		s.Creds[pair] = CredSnap{Count: cs.count, Sources: copySet(cs.sources)}
	}
	for target, n := range a.bounce {
		s.BounceTargets[target] = n
	}
	for ip, hp := range a.honeypots {
		s.Honeypots[ip] = HoneypotSnap{
			Lure: hp.lure, Deployed: hp.deployed, First: hp.first,
			Probed: hp.probed, Sessions: hp.sessions,
		}
	}
	for key, cs := range a.camps {
		s.Campaigns[key] = CampaignSnap{Events: cs.events, Sources: copySet(cs.sources)}
	}
	return s
}

// MergeSnapshot folds a snapshot into the accumulator, as if the traffic it
// summarizes had been observed here.
func (a *Accumulator) MergeSnapshot(s *Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events += s.Events
	a.sessions += s.Sessions
	a.closed += s.Closed
	a.uploads += s.Uploads
	a.deletes += s.Deletes
	a.anonOK += s.AnonLogins
	a.bounceN += s.BounceAttempts
	for ip, rsnap := range s.Remotes {
		rs, ok := a.remotes[ip]
		if !ok {
			rs = &remoteState{}
			a.remotes[ip] = rs
		}
		rs.spokeFTP = rs.spokeFTP || rsnap.SpokeFTP
		rs.httpGet = rs.httpGet || rsnap.HTTPGet
		rs.traversed = rs.traversed || rsnap.Traversed
		rs.listed = rs.listed || rsnap.Listed
		rs.authTLS = rs.authTLS || rsnap.AuthTLS
		rs.cve = rs.cve || rsnap.CVE
		rs.rootLogin = rs.rootLogin || rsnap.RootLogin
		rs.uploads += rsnap.Uploads
		rs.mkdirs += rsnap.Mkdirs
	}
	for pair, csnap := range s.Creds {
		cs, ok := a.creds[pair]
		if !ok {
			cs = &credState{sources: make(map[string]bool, len(csnap.Sources))}
			a.creds[pair] = cs
		}
		cs.count += csnap.Count
		for src := range csnap.Sources {
			cs.sources[src] = true
		}
	}
	for target, n := range s.BounceTargets {
		a.bounce[target] += n
	}
	for ip, hsnap := range s.Honeypots {
		hp, ok := a.honeypots[ip]
		if !ok {
			hp = &hpState{lure: hsnap.Lure, deployed: hsnap.Deployed}
			a.honeypots[ip] = hp
		}
		if hsnap.Probed && (!hp.probed || hsnap.First.Before(hp.first)) {
			hp.probed, hp.first = true, hsnap.First
		}
		hp.sessions += hsnap.Sessions
	}
	for key, csnap := range s.Campaigns {
		cs, ok := a.camps[key]
		if !ok {
			cs = &campState{sources: make(map[string]bool, len(csnap.Sources))}
			a.camps[key] = cs
		}
		cs.events += csnap.Events
		for src := range csnap.Sources {
			cs.sources[src] = true
		}
	}
}

// Merge folds another accumulator's state into this one via its snapshot.
func (a *Accumulator) Merge(other *Accumulator) { a.MergeSnapshot(other.Snapshot()) }

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// --- Finalizers -----------------------------------------------------------

// Summary finalizes the §VIII statistics. Deterministic: the top source
// prefix breaks count ties lexicographically.
func (a *Accumulator) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		CredentialPairs: len(a.creds),
		AnonymousLogins: a.anonOK,
		Uploads:         a.uploads,
		Deletes:         a.deletes,
		BounceAttempts:  a.bounceN,
		BounceTargets:   make(map[string]int, len(a.bounce)),
	}
	for target, n := range a.bounce {
		s.BounceTargets[target] = n
	}
	prefixCounts := map[string]int{}
	for ip, rs := range a.remotes {
		s.UniqueScanners++
		if rs.spokeFTP {
			s.SpokeFTP++
		}
		if rs.httpGet {
			s.HTTPGet++
		}
		if rs.traversed {
			s.Traversed++
		}
		if rs.listed {
			s.Listed++
		}
		if rs.authTLS {
			s.AuthTLS++
		}
		if rs.cve {
			s.CVEAttempts++
		}
		if rs.rootLogin {
			s.RootLogins++
		}
		if rs.mkdirs > 0 && rs.uploads == 0 {
			s.MkdirOnly++
		}
		if dot := strings.IndexByte(ip, '.'); dot > 0 {
			prefixCounts[ip[:dot]+".0.0.0/8"]++
		}
	}
	// Max selection over sorted keys: ties resolve to the lexicographically
	// smallest prefix no matter what order the folds arrived in.
	for _, prefix := range sortedPrefixes(prefixCounts) {
		if s.TopSourcePrefix == "" || prefixCounts[prefix] > prefixCounts[s.TopSourcePrefix] {
			s.TopSourcePrefix = prefix
		}
	}
	if s.UniqueScanners > 0 {
		s.TopSourcePrefixShare = 100 * float64(prefixCounts[s.TopSourcePrefix]) / float64(s.UniqueScanners)
	}
	return s
}

func sortedPrefixes(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LureTimeline is one lure strategy's interaction timeline: how many
// honeypots ran it, how many were probed at all, session volume, and the
// exact time-to-first-probe distribution (one sample per probed honeypot,
// so the distribution is population-bounded and quantiles are exact).
type LureTimeline struct {
	Lure      LureStrategy
	Honeypots int
	Probed    int
	Sessions  int
	TTFMin    time.Duration
	TTFMedian time.Duration
	TTFP90    time.Duration
	TTFMax    time.Duration
}

// Timelines finalizes the per-lure time-to-first-probe distributions,
// sorted by lure name.
func (a *Accumulator) Timelines() []LureTimeline {
	a.mu.Lock()
	defer a.mu.Unlock()
	byLure := map[LureStrategy]*LureTimeline{}
	samples := map[LureStrategy][]time.Duration{}
	for _, hp := range a.honeypots {
		tl, ok := byLure[hp.lure]
		if !ok {
			tl = &LureTimeline{Lure: hp.lure}
			byLure[hp.lure] = tl
		}
		tl.Honeypots++
		tl.Sessions += hp.sessions
		if hp.probed {
			tl.Probed++
			samples[hp.lure] = append(samples[hp.lure], hp.first.Sub(hp.deployed))
		}
	}
	out := make([]LureTimeline, 0, len(byLure))
	for lure, tl := range byLure {
		if ds := samples[lure]; len(ds) > 0 {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			tl.TTFMin = ds[0]
			tl.TTFMedian = ds[(len(ds)-1)/2]
			tl.TTFP90 = ds[(len(ds)-1)*9/10]
			tl.TTFMax = ds[len(ds)-1]
		}
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lure < out[j].Lure })
	return out
}

// CredCluster is one credential pair reused across distinct sources.
type CredCluster struct {
	Pair    string
	Sources int
	Tries   int
}

// CredClusters summarizes credential reuse across the bot population.
type CredClusters struct {
	UniquePairs int
	ReusedPairs int
	// Top holds the most widely shared pairs, ordered by source count
	// descending, then tries descending, then pair ascending.
	Top []CredCluster
}

// CredReuse finalizes credential-reuse clustering: pairs tried from two or
// more distinct sources mark coordinated campaigns (shared dictionaries
// walking the fleet). topN bounds the reported cluster table; topN <= 0
// means 10.
func (a *Accumulator) CredReuse(topN int) CredClusters {
	a.mu.Lock()
	defer a.mu.Unlock()
	if topN <= 0 {
		topN = 10
	}
	c := CredClusters{UniquePairs: len(a.creds)}
	clusters := make([]CredCluster, 0, len(a.creds))
	for pair, cs := range a.creds {
		if len(cs.sources) >= 2 {
			c.ReusedPairs++
		}
		clusters = append(clusters, CredCluster{Pair: pair, Sources: len(cs.sources), Tries: cs.count})
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].Sources != clusters[j].Sources {
			return clusters[i].Sources > clusters[j].Sources
		}
		if clusters[i].Tries != clusters[j].Tries {
			return clusters[i].Tries > clusters[j].Tries
		}
		return clusters[i].Pair < clusters[j].Pair
	})
	if len(clusters) > topN {
		clusters = clusters[:topN]
	}
	c.Top = clusters
	return c
}

// CampaignRow is one attributed campaign in the §VIII attribution table.
type CampaignRow struct {
	Key     string
	Events  int
	Sources int
}

// Attribution finalizes the campaign attribution table, sorted by key.
func (a *Accumulator) Attribution() []CampaignRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]CampaignRow, 0, len(a.camps))
	for key, cs := range a.camps {
		rows = append(rows, CampaignRow{Key: key, Events: cs.events, Sources: len(cs.sources)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}

// Report is the full streamed study output: the paper's §VIII summary plus
// the Honeybuckets-style fleet analyses.
type Report struct {
	Summary     Summary
	Timelines   []LureTimeline
	Creds       CredClusters
	Attribution []CampaignRow
	Events      uint64
	Sessions    uint64
}

// Report finalizes everything at once.
func (a *Accumulator) Report() Report {
	return Report{
		Summary:     a.Summary(),
		Timelines:   a.Timelines(),
		Creds:       a.CredReuse(0),
		Attribution: a.Attribution(),
		Events:      a.Events(),
		Sessions:    a.Sessions(),
	}
}

// --- Event stream ---------------------------------------------------------

// StreamEvent is the JSONL wire form of one honeypot event: the ftpserver
// audit shape plus the honeypot identity the per-server Observer cannot
// know. This is what -events-out persists.
type StreamEvent struct {
	Honeypot string    `json:"honeypot"`
	Lure     string    `json:"lure"`
	Time     time.Time `json:"time"`
	Kind     string    `json:"kind"`
	RemoteIP string    `json:"remote_ip,omitempty"`
	User     string    `json:"user,omitempty"`
	Pass     string    `json:"pass,omitempty"`
	Command  string    `json:"command,omitempty"`
	Arg      string    `json:"arg,omitempty"`
	Path     string    `json:"path,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	Bytes    int64     `json:"bytes,omitempty"`
}

// EventStream adapts a dataset.Lines into per-honeypot observers that
// persist every event as one JSON line tagged with the honeypot's identity.
type EventStream struct {
	lines *dataset.Lines
}

// NewEventStream wraps lines for the fleet's event firehose.
func NewEventStream(lines *dataset.Lines) *EventStream {
	return &EventStream{lines: lines}
}

// Observer returns the observer for one honeypot.
func (s *EventStream) Observer(honeypotIP string, lure LureStrategy) ftpserver.Observer {
	return &streamEventObserver{lines: s.lines, ip: honeypotIP, lure: string(lure)}
}

// Close flushes the underlying stream.
func (s *EventStream) Close() error { return s.lines.Close() }

type streamEventObserver struct {
	lines *dataset.Lines
	ip    string
	lure  string
}

func (o *streamEventObserver) Event(e ftpserver.Event) {
	o.lines.Write(StreamEvent{
		Honeypot: o.ip,
		Lure:     o.lure,
		Time:     e.Time,
		Kind:     e.Kind.String(),
		RemoteIP: e.RemoteIP,
		User:     e.User,
		Pass:     e.Pass,
		Command:  e.Command,
		Arg:      e.Arg,
		Path:     e.Path,
		Detail:   e.Detail,
		Bytes:    e.Bytes,
	})
}
