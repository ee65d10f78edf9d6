package analysis

import (
	"sort"

	"ftpcloud/internal/asdb"
)

// ASConcentration is Table III plus Figure 1's CDF inputs.
type ASConcentration struct {
	// ASesForHalfAll/Anon/Writable: how many of the largest ASes hold
	// 50% of each population (paper: 78 / 42 / —).
	ASesForHalfAll      int
	ASesForHalfAnon     int
	ASesForHalfWritable int
	// TypeBreakdownAll/Anon: operator types among those covering ASes
	// (paper: 50 hosting / 25 ISP / 3 academic of the 78).
	TypeBreakdownAll  map[asdb.Type]int
	TypeBreakdownAnon map[asdb.Type]int
	// Totals.
	TotalASesAll      int
	TotalASesAnon     int
	TotalASesWritable int
	// CDFs are cumulative fractions per AS rank (Figure 1 series).
	CDFAll      []float64
	CDFAnon     []float64
	CDFWritable []float64
}

// ASConcentrationAcc accumulates Table III / Figure 1. Counts key on the AS
// number — plain data rather than *asdb.AS identity — so the state
// serializes without the database. The zero value is ready.
type ASConcentrationAcc struct {
	All, Anon map[uint32]int
	// Writable's key set is every AS holding a world-writable anonymous
	// server, which is also §VI's writable-AS count.
	Writable map[uint32]int
	// Types remembers each counted AS's operator type for the Table III
	// breakdown; an AS number maps to exactly one type in the database.
	Types map[uint32]asdb.Type
}

func (a *ASConcentrationAcc) init() {
	a.All = map[uint32]int{}
	a.Anon = map[uint32]int{}
	a.Writable = map[uint32]int{}
	a.Types = map[uint32]asdb.Type{}
}

// Observe folds one record.
func (a *ASConcentrationAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	as := r.AS()
	if as == nil {
		return
	}
	if a.All == nil {
		a.init()
	}
	n := as.Number
	a.Types[n] = as.Type
	a.All[n]++
	if r.Host.AnonymousOK {
		a.Anon[n]++
		if Writable(r.Host) {
			a.Writable[n]++
		}
	}
}

// Finalize produces Table III and Figure 1.
func (a *ASConcentrationAcc) Finalize() ASConcentration {
	halfAll, typesAll, cdfAll := concentration(a.All, a.Types)
	halfAnon, typesAnon, cdfAnon := concentration(a.Anon, a.Types)
	halfW, _, cdfW := concentration(a.Writable, a.Types)

	return ASConcentration{
		ASesForHalfAll:      halfAll,
		ASesForHalfAnon:     halfAnon,
		ASesForHalfWritable: halfW,
		TypeBreakdownAll:    typesAll,
		TypeBreakdownAnon:   typesAnon,
		TotalASesAll:        len(a.All),
		TotalASesAnon:       len(a.Anon),
		TotalASesWritable:   len(a.Writable),
		CDFAll:              cdfAll,
		CDFAnon:             cdfAnon,
		CDFWritable:         cdfW,
	}
}

// concentration sorts AS counts descending and returns the 50% crossing,
// the type mix of the ASes up to that crossing, and the full CDF.
func concentration(counts map[uint32]int, asTypes map[uint32]asdb.Type) (half int, types map[asdb.Type]int, cdf []float64) {
	type pair struct {
		as uint32
		n  int
	}
	pairs := make([]pair, 0, len(counts))
	total := 0
	for as, n := range counts {
		pairs = append(pairs, pair{as, n})
		total += n
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].n != pairs[j].n {
			return pairs[i].n > pairs[j].n
		}
		return pairs[i].as < pairs[j].as
	})
	types = make(map[asdb.Type]int)
	cdf = make([]float64, len(pairs))
	cum := 0
	half = len(pairs)
	crossed := false
	for i, p := range pairs {
		cum += p.n
		if total > 0 {
			cdf[i] = float64(cum) / float64(total)
		}
		if !crossed {
			types[asTypes[p.as]]++
			if float64(cum) >= 0.5*float64(total) {
				half = i + 1
				crossed = true
			}
		}
	}
	if total == 0 {
		half = 0
	}
	return half, types, cdf
}

// TopAS is one Table VI row.
type TopAS struct {
	Number        uint32
	Name          string
	IPsAdvertised uint64
	FTPServers    int
	AnonServers   int
	PctAnon       float64
}

// TopASesAcc accumulates Table VI, keyed by AS number with the row metadata
// (name, advertised space) carried alongside, so the state is plain data.
// The zero value is ready.
type TopASesAcc struct {
	Counts map[uint32]*TopASAgg
}

// TopASAgg is one AS's Table VI counters.
type TopASAgg struct {
	FTP, Anon  int
	Name       string
	Advertised uint64
}

// Observe folds one record.
func (a *TopASesAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	as := r.AS()
	if as == nil {
		return
	}
	if a.Counts == nil {
		a.Counts = map[uint32]*TopASAgg{}
	}
	agg, ok := a.Counts[as.Number]
	if !ok {
		agg = &TopASAgg{Name: as.Name, Advertised: as.Advertised()}
		a.Counts[as.Number] = agg
	}
	agg.FTP++
	if r.Host.AnonymousOK {
		agg.Anon++
	}
}

// Finalize produces the top-n Table VI rows.
func (a *TopASesAcc) Finalize(n int) []TopAS {
	out := make([]TopAS, 0, len(a.Counts))
	for number, agg := range a.Counts {
		out = append(out, TopAS{
			Number:        number,
			Name:          agg.Name,
			IPsAdvertised: agg.Advertised,
			FTPServers:    agg.FTP,
			AnonServers:   agg.Anon,
			PctAnon:       percent(agg.Anon, agg.FTP),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AnonServers != out[j].AnonServers {
			return out[i].AnonServers > out[j].AnonServers
		}
		return out[i].Number < out[j].Number
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
