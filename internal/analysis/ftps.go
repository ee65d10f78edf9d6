package analysis

import (
	"sort"
)

// CertCount is one Table XII row: one distinct certificate and its spread.
type CertCount struct {
	CommonName  string
	Fingerprint string
	Servers     int
	SelfSigned  bool
}

// DeviceCert is one Table XIII row: a device family shipping one cert.
type DeviceCert struct {
	Device     string
	CommonName string
	Servers    int
}

// FTPS aggregates §IX and Tables XII/XIII.
type FTPS struct {
	// Supported counts servers completing AUTH TLS (paper: 3.4M = 25%).
	Supported    int
	PctSupported float64
	// RequirePreLogin counts servers demanding TLS before USER (85K).
	RequirePreLogin int
	// UniqueCerts counts distinct certificates (paper: 793K across 3.4M).
	UniqueCerts int
	// SelfSigned counts servers presenting self-signed certs (50%).
	SelfSigned    int
	PctSelfSigned float64
	// TopCerts is Table XII.
	TopCerts []CertCount
	// DeviceCerts is Table XIII: certificate sharing by device families.
	DeviceCerts []DeviceCert
	TotalFTP    int
}

// CertAgg tracks one distinct certificate's spread.
type CertAgg struct {
	CN         string
	SelfSigned bool
	Servers    int
	// Devices counts the certificate's servers by device model; nil until
	// a server with a device model presents the certificate.
	Devices map[string]int
}

// FTPSAcc accumulates §IX and Tables XII/XIII. The zero value is ready.
type FTPSAcc struct {
	TotalFTP, Supported, RequirePre, SelfSigned int

	ByFP map[string]*CertAgg
}

// Observe folds one record.
func (a *FTPSAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP {
		return
	}
	a.TotalFTP++
	if !host.FTPSSupported() {
		return
	}
	a.Supported++
	if host.FTPS.RequiredPreLogin {
		a.RequirePre++
	}
	cert := host.FTPS.Cert
	if cert == nil {
		return
	}
	if cert.SelfSigned {
		a.SelfSigned++
	}
	if a.ByFP == nil {
		a.ByFP = map[string]*CertAgg{}
	}
	agg, ok := a.ByFP[cert.FingerprintSHA256]
	if !ok {
		agg = &CertAgg{CN: cert.CommonName, SelfSigned: cert.SelfSigned}
		a.ByFP[cert.FingerprintSHA256] = agg
	}
	agg.Servers++
	if c := r.Class(); c.DeviceModel != "" {
		if agg.Devices == nil {
			agg.Devices = map[string]int{}
		}
		agg.Devices[c.DeviceModel]++
	}
}

// Finalize produces §IX, Table XII, and Table XIII. Sort keys include the
// certificate fingerprint so tied rows order deterministically regardless
// of map iteration order — the streaming and batch paths must render
// byte-identically.
func (a *FTPSAcc) Finalize(topN int) FTPS {
	f := FTPS{
		Supported:       a.Supported,
		RequirePreLogin: a.RequirePre,
		SelfSigned:      a.SelfSigned,
		TotalFTP:        a.TotalFTP,
		UniqueCerts:     len(a.ByFP),
	}
	f.PctSupported = percent(f.Supported, f.TotalFTP)
	f.PctSelfSigned = percent(f.SelfSigned, f.Supported)

	type deviceRow struct {
		row DeviceCert
		fp  string
	}
	var deviceRows []deviceRow
	for fp, agg := range a.ByFP {
		f.TopCerts = append(f.TopCerts, CertCount{
			CommonName:  agg.CN,
			Fingerprint: fp,
			Servers:     agg.Servers,
			SelfSigned:  agg.SelfSigned,
		})
		// A certificate dominated by one device family is a shared
		// device certificate (Table XIII).
		for device, n := range agg.Devices {
			if n*2 >= agg.Servers && n > 1 {
				deviceRows = append(deviceRows, deviceRow{
					row: DeviceCert{Device: device, CommonName: agg.CN, Servers: n},
					fp:  fp,
				})
			}
		}
	}
	sort.Slice(f.TopCerts, func(i, j int) bool {
		if f.TopCerts[i].Servers != f.TopCerts[j].Servers {
			return f.TopCerts[i].Servers > f.TopCerts[j].Servers
		}
		if f.TopCerts[i].CommonName != f.TopCerts[j].CommonName {
			return f.TopCerts[i].CommonName < f.TopCerts[j].CommonName
		}
		return f.TopCerts[i].Fingerprint < f.TopCerts[j].Fingerprint
	})
	if len(f.TopCerts) > topN {
		f.TopCerts = f.TopCerts[:topN]
	}
	sort.Slice(deviceRows, func(i, j int) bool {
		a, b := deviceRows[i], deviceRows[j]
		if a.row.Servers != b.row.Servers {
			return a.row.Servers > b.row.Servers
		}
		if a.row.Device != b.row.Device {
			return a.row.Device < b.row.Device
		}
		if a.row.CommonName != b.row.CommonName {
			return a.row.CommonName < b.row.CommonName
		}
		return a.fp < b.fp
	})
	for _, dr := range deviceRows {
		f.DeviceCerts = append(f.DeviceCerts, dr.row)
	}
	return f
}
