package analysis

import (
	"sort"

	"ftpcloud/internal/personality"
)

// CategoryCount is one Table II row.
type CategoryCount struct {
	Name    string
	All     int
	PctAll  float64
	Anon    int
	PctAnon float64
}

// Classification is Table II: the category breakout of all vs anonymous
// servers.
type Classification struct {
	Rows      []CategoryCount // Generic, Hosted, Embedded, Unknown
	TotalFTP  int
	TotalAnon int
}

// classificationOrder fixes Table II's row order.
var classificationOrder = []string{"Generic Server", "Hosted Server", "Embedded Server", "Unknown"}

// ClassificationAcc accumulates Table II. The zero value is ready; the
// first fold creates every Table II row, so a populated state names all
// four categories.
type ClassificationAcc struct {
	Counts              map[string]*CategoryCount
	TotalFTP, TotalAnon int
}

func (a *ClassificationAcc) init() {
	a.Counts = map[string]*CategoryCount{}
	for _, name := range classificationOrder {
		a.Counts[name] = &CategoryCount{Name: name}
	}
}

// Observe folds one record.
func (a *ClassificationAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	if a.Counts == nil {
		a.init()
	}
	a.TotalFTP++
	c := r.Class()
	name := "Unknown"
	if c.Known() {
		name = c.Category.String()
	}
	a.Counts[name].All++
	if r.Host.AnonymousOK {
		a.TotalAnon++
		a.Counts[name].Anon++
	}
}

// Finalize produces Table II.
func (a *ClassificationAcc) Finalize() Classification {
	out := Classification{TotalFTP: a.TotalFTP, TotalAnon: a.TotalAnon}
	for _, name := range classificationOrder {
		row := CategoryCount{Name: name}
		if c, ok := a.Counts[name]; ok {
			row = *c
		}
		row.PctAll = percent(row.All, a.TotalFTP)
		row.PctAnon = percent(row.Anon, a.TotalAnon)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// DeviceCount is one row of Table V or VII.
type DeviceCount struct {
	Model   string
	Found   int
	Anon    int
	PctAnon float64
}

// DeviceBreakdown holds the device tables.
type DeviceBreakdown struct {
	// Provider is Table V (ISP-deployed devices, ~zero anonymous).
	Provider []DeviceCount
	// Consumer is Table VII (user-deployed devices and their wildly
	// varying anonymous-by-default rates).
	Consumer []DeviceCount
	// Classes is Table IV: embedded devices grouped into NAS / home
	// router / printer classes.
	Classes []DeviceCount
}

// DevicesAcc accumulates Tables IV, V, and VII. The zero value is ready.
type DevicesAcc struct {
	Provider, Consumer, Classes map[string]*DeviceCount
}

// bump counts one server of model in m, creating the row on first use.
func bump(m map[string]*DeviceCount, model string, found, anon int) {
	dc, ok := m[model]
	if !ok {
		dc = &DeviceCount{Model: model}
		m[model] = dc
	}
	dc.Found += found
	dc.Anon += anon
}

func (a *DevicesAcc) init() {
	a.Provider = map[string]*DeviceCount{}
	a.Consumer = map[string]*DeviceCount{}
	a.Classes = map[string]*DeviceCount{}
}

// Observe folds one record.
func (a *DevicesAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	c := r.Class()
	if c.DeviceModel == "" {
		return
	}
	if a.Provider == nil {
		a.init()
	}
	anon := 0
	if r.Host.AnonymousOK {
		anon = 1
	}
	bucket := a.Consumer
	if c.ProviderDeployed {
		bucket = a.Provider
	}
	bump(bucket, c.DeviceModel, 1, anon)

	var className string
	switch c.DeviceClass {
	case personality.DeviceNAS, personality.DeviceStorage:
		className = "NAS"
	case personality.DeviceHomeRouter:
		if !c.ProviderDeployed {
			className = "Home Router (user-deployed)"
		}
	case personality.DevicePrinter:
		className = "Printers"
	}
	if className != "" {
		bump(a.Classes, className, 1, anon)
	}
}

// Finalize produces the device tables.
func (a *DevicesAcc) Finalize() DeviceBreakdown {
	finish := func(m map[string]*DeviceCount) []DeviceCount {
		out := make([]DeviceCount, 0, len(m))
		for _, dc := range m {
			row := *dc
			row.PctAnon = percent(row.Anon, row.Found)
			out = append(out, row)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Found != out[j].Found {
				return out[i].Found > out[j].Found
			}
			return out[i].Model < out[j].Model
		})
		return out
	}
	return DeviceBreakdown{
		Provider: finish(a.Provider),
		Consumer: finish(a.Consumer),
		Classes:  finish(a.Classes),
	}
}
