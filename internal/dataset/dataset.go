// Package dataset defines the measurement records the census produces and a
// JSONL store for persisting them. The schema mirrors what the paper's
// toolchain captured per host: banner, login outcome, robots.txt, directory
// listings with permissions, HELP/FEAT/SITE output, FTPS certificate, PASV
// posture, and PORT-validation results.
//
// The store is JSON lines, one HostRecord per line, written and read by a
// hand-written codec (codec.go) rather than encoding/json: the struct tags
// are the schema's documentation and the tests' oracle. The Writer's bytes
// are exactly encoding/json's, and every line ReadAll accepts, encoding/json
// accepts with the same result. ReadAll is stricter in two ways: keys match
// exactly (encoding/json folds case, so a key differing from a field only in
// case is an error here), and a bare null line is an error rather than an
// empty record.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"
)

// Readability mirrors listparse's tri-state as a stable wire enum.
type Readability string

// Readability values.
const (
	ReadUnknown Readability = "unk"
	ReadYes     Readability = "yes"
	ReadNo      Readability = "no"
)

// FileEntry is one observed file or directory.
type FileEntry struct {
	Path    string      `json:"path"`
	Name    string      `json:"name"`
	IsDir   bool        `json:"is_dir,omitempty"`
	Size    int64       `json:"size,omitempty"`
	Read    Readability `json:"read,omitempty"`
	Write   Readability `json:"write,omitempty"`
	Owner   string      `json:"owner,omitempty"`
	ModTime time.Time   `json:"mtime,omitempty"`
}

// CertInfo describes a collected FTPS certificate.
type CertInfo struct {
	FingerprintSHA256 string `json:"fingerprint"`
	CommonName        string `json:"common_name"`
	SelfSigned        bool   `json:"self_signed"`
}

// FTPSInfo captures the AUTH TLS observations for one host.
type FTPSInfo struct {
	Supported        bool      `json:"supported"`
	RequiredPreLogin bool      `json:"required_pre_login,omitempty"`
	Cert             *CertInfo `json:"cert,omitempty"`
}

// PortValidation is the host's PORT-command posture.
type PortValidation string

// PORT validation outcomes.
const (
	PortNotTested    PortValidation = "not-tested"
	PortValidated    PortValidation = "validated"
	PortNotValidated PortValidation = "not-validated"
)

// HostRecord is everything the enumerator learned about one address.
type HostRecord struct {
	IP        string    `json:"ip"`
	ScannedAt time.Time `json:"scanned_at,omitempty"`

	// PortOpen is true for every record (hosts come from discovery);
	// FTP marks hosts whose banner was FTP-compliant.
	PortOpen bool   `json:"port_open"`
	FTP      bool   `json:"ftp"`
	Banner   string `json:"banner,omitempty"`

	// Service names the wire protocol the identification stage sniffed on
	// an endpoint it shed before enumeration ("http", "ssh", "tls",
	// "telnet", "garbage", "none"). Empty on FTP records and on two-stage
	// runs without identification.
	Service string `json:"service,omitempty"`

	// BannerIP is an IP address embedded in the banner, if any (devices
	// frequently display their own, often RFC 1918, address).
	BannerIP        string `json:"banner_ip,omitempty"`
	BannerIPPrivate bool   `json:"banner_ip_private,omitempty"`

	// BannerOptOut marks banners that declare anonymous access
	// unavailable; the enumerator honors them by not attempting login.
	BannerOptOut bool `json:"banner_opt_out,omitempty"`

	AnonymousOK bool   `json:"anonymous_ok"`
	LoginReply  string `json:"login_reply,omitempty"`

	Syst string   `json:"syst,omitempty"`
	Feat []string `json:"feat,omitempty"`
	Help string   `json:"help,omitempty"`
	Site string   `json:"site,omitempty"`

	RobotsTxt        string `json:"robots_txt,omitempty"`
	RobotsExcludeAll bool   `json:"robots_exclude_all,omitempty"`

	Files            []FileEntry `json:"files,omitempty"`
	RequestsUsed     int         `json:"requests_used,omitempty"`
	ListingTruncated bool        `json:"listing_truncated,omitempty"`
	ConnTerminated   bool        `json:"conn_terminated,omitempty"`

	// PASVIP is the address advertised in the first PASV reply; a
	// mismatch with IP reveals NAT.
	PASVIP       string `json:"pasv_ip,omitempty"`
	PASVMismatch bool   `json:"pasv_mismatch,omitempty"`

	PortCheck PortValidation `json:"port_check,omitempty"`

	// FTPS is nil until the enumerator attempts AUTH TLS; a pointer so
	// omitempty actually elides it from hosts with no TLS observations.
	FTPS *FTPSInfo `json:"ftps,omitempty"`

	// WriteEvidence lists reference-set filenames observed in listings
	// (§VI.A's world-writability indicator).
	WriteEvidence []string `json:"write_evidence,omitempty"`
	// AnonUploadConfirmed marks hosts whose server confirmed an
	// anonymous upload via the Pure-FTPd-style RETR refusal message —
	// §VI.A's strongest write evidence.
	AnonUploadConfirmed bool `json:"anon_upload_confirmed,omitempty"`

	// Partial marks records whose enumeration was degraded by a fault —
	// a reset mid-traversal, a stalled data channel, an exhausted budget —
	// rather than completing or being refused. The data present is valid;
	// the host simply was not fully explored.
	Partial bool `json:"partial,omitempty"`
	// FailureClass names the dominant fault behind a partial or failed
	// enumeration: "connect", "timeout", "reset", "eof", "protocol",
	// "stall", "budget-time", "budget-bytes", or "io".
	FailureClass string `json:"failure_class,omitempty"`
	// SkippedDirs counts subtrees abandoned to keep the host alive (e.g.
	// a stalled LIST skips that directory, not the whole host).
	SkippedDirs int `json:"skipped_dirs,omitempty"`
	// Retries counts transport-level retry attempts consumed.
	Retries int `json:"retries,omitempty"`
	// DataBytes totals bytes read over data channels.
	DataBytes int64 `json:"data_bytes,omitempty"`

	// Error records a fatal enumeration failure, if any.
	Error string `json:"error,omitempty"`
}

// EnsureFTPS returns the record's FTPS observations, allocating them on
// first use.
func (r *HostRecord) EnsureFTPS() *FTPSInfo {
	if r.FTPS == nil {
		r.FTPS = &FTPSInfo{}
	}
	return r.FTPS
}

// FTPSSupported reports whether the host completed AUTH TLS.
func (r *HostRecord) FTPSSupported() bool {
	return r.FTPS != nil && r.FTPS.Supported
}

// FTPSCert returns the collected certificate, or nil.
func (r *HostRecord) FTPSCert() *CertInfo {
	if r.FTPS == nil {
		return nil
	}
	return r.FTPS.Cert
}

// Writer persists records as JSON lines.
type Writer struct {
	w   *bufio.Writer
	n   int
	buf []byte // one encoded line, reused
}

// maxKeptLine bounds the line buffer a Writer keeps between records, so one
// huge listing does not pin its encoding for the rest of a census.
const maxKeptLine = 1 << 20

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record.
func (w *Writer) Write(rec *HostRecord) error {
	line, err := AppendRecord(w.buf[:0], rec)
	if err != nil {
		return fmt.Errorf("dataset: encoding record for %s: %w", rec.IP, err)
	}
	if cap(line) <= maxKeptLine {
		w.buf = line
	}
	if _, err := w.w.Write(line); err != nil {
		return fmt.Errorf("dataset: writing record for %s: %w", rec.IP, err)
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadAll parses a JSONL stream back into records. Lines may be of any
// length; a trailing "\r" is dropped and empty lines are skipped. An error
// names the 1-based line it failed on.
func ReadAll(r io.Reader) ([]*HostRecord, error) {
	var (
		out  []*HostRecord
		d    decoder
		long []byte // a line longer than the read buffer, reassembled
	)
	br := bufio.NewReaderSize(r, 1<<16)
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("dataset: reading line %d: %w", n, err)
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if len(line) > 0 {
			rec := &HostRecord{}
			if derr := d.decodeRecord(line, rec); derr != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", n, derr)
			}
			out = append(out, rec)
		}
		if err == io.EOF {
			return out, nil
		}
	}
}
