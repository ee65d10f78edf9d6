// Package delta compares two census snapshots taken at different epochs —
// the longitudinal half of the study. The paper's census is a single
// point-in-time sweep; rescanning the same world at a later epoch (see
// worldgen.Params.Epoch) and diffing the results shows what one scan
// cannot: hosts appearing and vanishing with provider churn, server
// populations migrating across versions as operators upgrade, and exposure
// trending as the anonymous population shifts.
//
// Both granularities come from the two censuses' streamed JSONL ledgers
// (CompareLedgers). Aggregate diffs (Compute) trend the headline counters
// of the tables each ledger folds to. Host-level diffs (DiffLedgers)
// resolve the actual host sets: which addresses are new, which vanished,
// and — for hosts present in both — how their classified software moved.
package delta

import (
	"fmt"
	"sort"
	"strings"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/report"
)

// Trend is one counter measured at two epochs.
type Trend struct {
	Before, After int
}

// Delta is the signed change.
func (t Trend) Delta() int { return t.After - t.Before }

// Pct is the relative change in percent; 0 when the base is empty.
func (t Trend) Pct() float64 {
	if t.Before == 0 {
		return 0
	}
	return 100 * float64(t.After-t.Before) / float64(t.Before)
}

// Report is the aggregate-level diff of two snapshots, with the optional
// host-level diff attached when ledgers were available.
type Report struct {
	Observed Trend
	// Funnel trends the discovery counts (Table I's rows).
	Open, FTP, Anon Trend
	// Categories trends Table II's classification rows, keyed by category
	// name; categories present in either snapshot appear.
	Categories map[string]Trend
	// Exposure trends the headline §VI counters.
	ExposingServers, AnonUploadConfirmed Trend
	// FTPS trends the TLS posture.
	FTPSSupported, FTPSSelfSigned Trend
	// Vulnerable trends the CVE-matched population.
	Vulnerable Trend

	// Hosts is nil unless DiffLedgers ran.
	Hosts *HostDelta
}

// CompareLedgers diffs two streamed ledgers, before → after: Compute over
// the aggregate each folds to, with DiffLedgers attached. No counter
// Compute reads depends on the AS database or the HTTP join, so the folds
// resolve neither.
func CompareLedgers(before, after []*dataset.HostRecord) *Report {
	r := Compute(fold(before), fold(after))
	r.Hosts = DiffLedgers(before, after)
	return r
}

// fold folds records through an aggregator that resolves nothing.
func fold(recs []*dataset.HostRecord) *analysis.Snapshot {
	agg := analysis.NewAggregator(nil, nil)
	for _, rec := range recs {
		_ = agg.Observe(rec) // an Aggregator never fails a record
	}
	return agg.Snapshot()
}

// Compute diffs two aggregate snapshots, from → to.
func Compute(from, to *analysis.Snapshot) *Report {
	r := &Report{
		Observed:            Trend{from.Observed, to.Observed},
		Open:                Trend{from.Funnel.Open, to.Funnel.Open},
		FTP:                 Trend{from.Funnel.FTP, to.Funnel.FTP},
		Anon:                Trend{from.Funnel.Anon, to.Funnel.Anon},
		ExposingServers:     Trend{from.Exposure.Exp.ExposingServers, to.Exposure.Exp.ExposingServers},
		AnonUploadConfirmed: Trend{from.Malicious.AnonUploadConfirmed, to.Malicious.AnonUploadConfirmed},
		FTPSSupported:       Trend{from.FTPS.Supported, to.FTPS.Supported},
		FTPSSelfSigned:      Trend{from.FTPS.SelfSigned, to.FTPS.SelfSigned},
		Vulnerable:          Trend{from.CVEs.Vulnerable, to.CVEs.Vulnerable},
		Categories:          map[string]Trend{},
	}
	for name, c := range from.Classification.Counts {
		r.Categories[name] = Trend{Before: c.All}
	}
	for name, c := range to.Classification.Counts {
		t := r.Categories[name]
		t.After = c.All
		r.Categories[name] = t
	}
	return r
}

// Flow is one version-migration edge: hosts classified as From in the
// earlier ledger and as To in the later one. Labels are
// "software version" (or "unidentified" when classification yields
// nothing).
type Flow struct {
	From, To string
}

// HostDelta is the host-level diff of two ledgers.
type HostDelta struct {
	// New / Vanished / Persisted partition the union of FTP host sets:
	// addresses only in the later ledger, only in the earlier, or in both.
	New, Vanished, Persisted int
	// Flows counts persisted hosts per version-migration edge, including
	// identity edges (no migration) — the full flow matrix.
	Flows map[Flow]int
	// AnonGained / AnonLost count persisted hosts whose anonymous access
	// opened or closed between the epochs.
	AnonGained, AnonLost int
}

// label renders a record's classified implementation for flow edges.
func label(rec *dataset.HostRecord) string {
	c := fingerprint.Classify(rec)
	switch {
	case c.Software == "":
		return "unidentified"
	case c.Version == "":
		return c.Software
	default:
		return c.Software + " " + c.Version
	}
}

// DiffLedgers diffs two streamed ledgers host by host. Only FTP-compliant
// records participate (shed endpoints from identification runs are
// skipped); if an address somehow appears twice in one ledger the last
// record wins, matching a resume-appended file.
func DiffLedgers(before, after []*dataset.HostRecord) *HostDelta {
	index := func(recs []*dataset.HostRecord) map[string]*dataset.HostRecord {
		m := make(map[string]*dataset.HostRecord, len(recs))
		for _, rec := range recs {
			if rec.FTP {
				m[rec.IP] = rec
			}
		}
		return m
	}
	b, a := index(before), index(after)

	d := &HostDelta{Flows: map[Flow]int{}}
	for ip, rec := range a {
		old, ok := b[ip]
		if !ok {
			d.New++
			continue
		}
		d.Persisted++
		d.Flows[Flow{From: label(old), To: label(rec)}]++
		switch {
		case rec.AnonymousOK && !old.AnonymousOK:
			d.AnonGained++
		case !rec.AnonymousOK && old.AnonymousOK:
			d.AnonLost++
		}
	}
	for ip := range b {
		if _, ok := a[ip]; !ok {
			d.Vanished++
		}
	}
	return d
}

// signed formats a delta with an explicit sign, the way longitudinal
// tables read.
func signed(n int) string { return fmt.Sprintf("%+d", n) }

// Render lays the report out as aligned tables in the house style.
func (r *Report) Render() string {
	var b strings.Builder

	t := report.NewTable("Delta I — Census funnel between epochs",
		"Stage", "Before", "After", "Delta", "Pct")
	for _, row := range []struct {
		name  string
		trend Trend
	}{
		{"Hosts observed", r.Observed},
		{"Open port 21", r.Open},
		{"FTP servers", r.FTP},
		{"Anonymous FTP", r.Anon},
	} {
		t.Row(row.name, row.trend.Before, row.trend.After, signed(row.trend.Delta()), row.trend.Pct())
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	names := make([]string, 0, len(r.Categories))
	for name := range r.Categories {
		names = append(names, name)
	}
	sort.Strings(names)
	t = report.NewTable("Delta II — Classification drift",
		"Category", "Before", "After", "Delta")
	for _, name := range names {
		tr := r.Categories[name]
		if tr.Before == 0 && tr.After == 0 {
			continue
		}
		t.Row(name, tr.Before, tr.After, signed(tr.Delta()))
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	t = report.NewTable("Delta III — Exposure and posture trends",
		"Indicator", "Before", "After", "Delta")
	t.Row("Servers exposing data", r.ExposingServers.Before, r.ExposingServers.After, signed(r.ExposingServers.Delta()))
	t.Row("Anonymous upload confirmed", r.AnonUploadConfirmed.Before, r.AnonUploadConfirmed.After, signed(r.AnonUploadConfirmed.Delta()))
	t.Row("FTPS supported", r.FTPSSupported.Before, r.FTPSSupported.After, signed(r.FTPSSupported.Delta()))
	t.Row("FTPS self-signed", r.FTPSSelfSigned.Before, r.FTPSSelfSigned.After, signed(r.FTPSSelfSigned.Delta()))
	t.Row("CVE-vulnerable servers", r.Vulnerable.Before, r.Vulnerable.After, signed(r.Vulnerable.Delta()))
	b.WriteString(t.String())

	if h := r.Hosts; h != nil {
		b.WriteString("\n")
		t = report.NewTable("Delta IV — Host churn (from ledgers)",
			"Population", "Hosts")
		t.Row("New", h.New)
		t.Row("Vanished", h.Vanished)
		t.Row("Persisted", h.Persisted)
		t.Row("Anonymous access gained", h.AnonGained)
		t.Row("Anonymous access lost", h.AnonLost)
		b.WriteString(t.String())
		b.WriteString("\n")
		b.WriteString(renderFlows(h.Flows))
	}
	return b.String()
}

// renderFlows lists migration edges, largest first, identity edges last;
// ties break lexically so rendering is deterministic.
func renderFlows(flows map[Flow]int) string {
	type edge struct {
		f Flow
		n int
	}
	edges := make([]edge, 0, len(flows))
	for f, n := range flows {
		edges = append(edges, edge{f, n})
	}
	sort.Slice(edges, func(i, j int) bool {
		ei, ej := edges[i], edges[j]
		mi, mj := ei.f.From != ei.f.To, ej.f.From != ej.f.To
		if mi != mj {
			return mi
		}
		if ei.n != ej.n {
			return ei.n > ej.n
		}
		if ei.f.From != ej.f.From {
			return ei.f.From < ej.f.From
		}
		return ei.f.To < ej.f.To
	})
	t := report.NewTable("Delta V — Version migration flows",
		"From", "To", "Hosts")
	for _, e := range edges {
		to := e.f.To
		if e.f.From == e.f.To {
			to = "(unchanged)"
		}
		t.Row(e.f.From, to, e.n)
	}
	return t.String()
}
