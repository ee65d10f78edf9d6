package dataset

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The ledger codec: a HostRecord's JSONL line written and parsed by hand.
// The bytes are those encoding/json writes for the struct tags, and any line
// the decoder accepts, encoding/json accepts and decodes to an equal record;
// the tests hold both against encoding/json.

// AppendRecord appends rec's ledger line, newline included, to dst: the
// fields in declaration order under the tags' omitempty rules, strings
// escaped as encoding/json escapes them (HTML-safe, U+2028/U+2029 as \u
// escapes, invalid UTF-8 as U+FFFD), times as RFC 3339 with nanoseconds. It
// fails only on a time RFC 3339 cannot carry: a year outside [0,9999] or a
// zone offset of a day or more.
func AppendRecord(dst []byte, rec *HostRecord) ([]byte, error) {
	var err error
	dst = appendString(append(dst, `{"ip":`...), rec.IP)
	if dst, err = appendTime(append(dst, `,"scanned_at":`...), rec.ScannedAt); err != nil {
		return dst, err
	}
	dst = strconv.AppendBool(append(dst, `,"port_open":`...), rec.PortOpen)
	dst = strconv.AppendBool(append(dst, `,"ftp":`...), rec.FTP)
	dst = optString(dst, `,"banner":`, rec.Banner)
	dst = optString(dst, `,"service":`, rec.Service)
	dst = optString(dst, `,"banner_ip":`, rec.BannerIP)
	dst = optTrue(dst, `,"banner_ip_private":true`, rec.BannerIPPrivate)
	dst = optTrue(dst, `,"banner_opt_out":true`, rec.BannerOptOut)
	dst = strconv.AppendBool(append(dst, `,"anonymous_ok":`...), rec.AnonymousOK)
	dst = optString(dst, `,"login_reply":`, rec.LoginReply)
	dst = optString(dst, `,"syst":`, rec.Syst)
	dst = optStrings(dst, `,"feat":`, rec.Feat)
	dst = optString(dst, `,"help":`, rec.Help)
	dst = optString(dst, `,"site":`, rec.Site)
	dst = optString(dst, `,"robots_txt":`, rec.RobotsTxt)
	dst = optTrue(dst, `,"robots_exclude_all":true`, rec.RobotsExcludeAll)
	if len(rec.Files) > 0 {
		dst = append(dst, `,"files":[`...)
		for i := range rec.Files {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFile(dst, &rec.Files[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = optInt(dst, `,"requests_used":`, int64(rec.RequestsUsed))
	dst = optTrue(dst, `,"listing_truncated":true`, rec.ListingTruncated)
	dst = optTrue(dst, `,"conn_terminated":true`, rec.ConnTerminated)
	dst = optString(dst, `,"pasv_ip":`, rec.PASVIP)
	dst = optTrue(dst, `,"pasv_mismatch":true`, rec.PASVMismatch)
	dst = optString(dst, `,"port_check":`, string(rec.PortCheck))
	if f := rec.FTPS; f != nil {
		dst = strconv.AppendBool(append(dst, `,"ftps":{"supported":`...), f.Supported)
		dst = optTrue(dst, `,"required_pre_login":true`, f.RequiredPreLogin)
		if c := f.Cert; c != nil {
			dst = appendString(append(dst, `,"cert":{"fingerprint":`...), c.FingerprintSHA256)
			dst = appendString(append(dst, `,"common_name":`...), c.CommonName)
			dst = strconv.AppendBool(append(dst, `,"self_signed":`...), c.SelfSigned)
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	dst = optStrings(dst, `,"write_evidence":`, rec.WriteEvidence)
	dst = optTrue(dst, `,"anon_upload_confirmed":true`, rec.AnonUploadConfirmed)
	dst = optTrue(dst, `,"partial":true`, rec.Partial)
	dst = optString(dst, `,"failure_class":`, rec.FailureClass)
	dst = optInt(dst, `,"skipped_dirs":`, int64(rec.SkippedDirs))
	dst = optInt(dst, `,"retries":`, int64(rec.Retries))
	dst = optInt(dst, `,"data_bytes":`, rec.DataBytes)
	dst = optString(dst, `,"error":`, rec.Error)
	return append(dst, "}\n"...), nil
}

func appendFile(dst []byte, e *FileEntry) ([]byte, error) {
	dst = appendString(append(dst, `{"path":`...), e.Path)
	dst = appendString(append(dst, `,"name":`...), e.Name)
	dst = optTrue(dst, `,"is_dir":true`, e.IsDir)
	dst = optInt(dst, `,"size":`, e.Size)
	dst = optString(dst, `,"read":`, string(e.Read))
	dst = optString(dst, `,"write":`, string(e.Write))
	dst = optString(dst, `,"owner":`, e.Owner)
	dst, err := appendTime(append(dst, `,"mtime":`...), e.ModTime)
	return append(dst, '}'), err
}

// optString, optStrings, optInt and optTrue write a field under omitempty:
// key is the field's `,"name":` prefix (optTrue's includes the value).
func optString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

func optStrings(dst []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return dst
	}
	dst = append(append(dst, key...), '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

func optInt(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

func optTrue(dst []byte, keyTrue string, b bool) []byte {
	if !b {
		return dst
	}
	return append(dst, keyTrue...)
}

// appendTime writes t as time.Time.MarshalJSON does, without its
// allocation; a time MarshalJSON refuses goes through it for the error.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	_, offset := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || offset <= -24*60*60 || offset >= 24*60*60 {
		b, err := t.MarshalJSON()
		return append(dst, b...), err
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune("\"\\<>&", c)
	}
	return safe
}()

// appendString writes s as a JSON string exactly as encoding/json does with
// HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// The keys each struct decodes, for rejecting keys that differ from one
// only in case (encoding/json would fold them onto the field).
var (
	recordKeys = []string{"ip", "scanned_at", "port_open", "ftp", "banner",
		"service", "banner_ip", "banner_ip_private", "banner_opt_out",
		"anonymous_ok", "login_reply", "syst", "feat", "help", "site",
		"robots_txt", "robots_exclude_all", "files", "requests_used",
		"listing_truncated", "conn_terminated", "pasv_ip", "pasv_mismatch",
		"port_check", "ftps", "write_evidence", "anon_upload_confirmed",
		"partial", "failure_class", "skipped_dirs", "retries", "data_bytes",
		"error"}
	fileKeys = []string{"path", "name", "is_dir", "size", "read", "write",
		"owner", "mtime"}
	ftpsKeys = []string{"supported", "required_pre_login", "cert"}
	certKeys = []string{"fingerprint", "common_name", "self_signed"}
)

// maxDepth is encoding/json's nesting limit; deeper input is refused.
const maxDepth = 10000

// plain marks the bytes a string holds as themselves: printable ASCII other
// than the quote and the backslash.
var plain = func() (p [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		p[c] = c != '"' && c != '\\'
	}
	return p
}()

// decoder parses ledger lines. It keeps the first error and stops there;
// every step after an error is a no-op, so the field decoders need no error
// plumbing. Values decode in place as encoding/json decodes them: null
// leaves a scalar or time untouched and clears a slice or pointer, and a
// repeated key decodes into what the first occurrence left.
type decoder struct {
	data    []byte
	off     int
	err     error
	scratch []byte // unquoted strings with escapes or non-ASCII bytes

	// Element buffers for list.
	files []FileEntry
	strs  []string
}

// decodeRecord parses one ledger line into rec.
func (d *decoder) decodeRecord(line []byte, rec *HostRecord) error {
	d.data, d.off, d.err = line, 0, nil
	if d.peek() != '{' {
		d.fail("expected a JSON object")
		return d.err
	}
	d.record(rec)
	if d.skipSpace(); d.err == nil && d.off < len(d.data) {
		d.fail("trailing data after the record")
	}
	return d.err
}

func (d *decoder) record(r *HostRecord) {
	d.off++ // '{'
	for first := true; ; {
		key, ok := d.nextKey(&first)
		if !ok {
			return
		}
		switch string(key) {
		case "ip":
			str(d, &r.IP)
		case "scanned_at":
			d.timestamp(&r.ScannedAt)
		case "port_open":
			d.boolean(&r.PortOpen)
		case "ftp":
			d.boolean(&r.FTP)
		case "banner":
			str(d, &r.Banner)
		case "service":
			str(d, &r.Service)
		case "banner_ip":
			str(d, &r.BannerIP)
		case "banner_ip_private":
			d.boolean(&r.BannerIPPrivate)
		case "banner_opt_out":
			d.boolean(&r.BannerOptOut)
		case "anonymous_ok":
			d.boolean(&r.AnonymousOK)
		case "login_reply":
			str(d, &r.LoginReply)
		case "syst":
			str(d, &r.Syst)
		case "feat":
			list(d, &r.Feat, &d.strs, stringElem)
		case "help":
			str(d, &r.Help)
		case "site":
			str(d, &r.Site)
		case "robots_txt":
			str(d, &r.RobotsTxt)
		case "robots_exclude_all":
			d.boolean(&r.RobotsExcludeAll)
		case "files":
			list(d, &r.Files, &d.files, (*decoder).file)
		case "requests_used":
			integer(d, &r.RequestsUsed)
		case "listing_truncated":
			d.boolean(&r.ListingTruncated)
		case "conn_terminated":
			d.boolean(&r.ConnTerminated)
		case "pasv_ip":
			str(d, &r.PASVIP)
		case "pasv_mismatch":
			d.boolean(&r.PASVMismatch)
		case "port_check":
			str(d, &r.PortCheck, PortNotTested, PortValidated, PortNotValidated)
		case "ftps":
			d.ftps(&r.FTPS)
		case "write_evidence":
			list(d, &r.WriteEvidence, &d.strs, stringElem)
		case "anon_upload_confirmed":
			d.boolean(&r.AnonUploadConfirmed)
		case "partial":
			d.boolean(&r.Partial)
		case "failure_class":
			str(d, &r.FailureClass)
		case "skipped_dirs":
			integer(d, &r.SkippedDirs)
		case "retries":
			integer(d, &r.Retries)
		case "data_bytes":
			integer(d, &r.DataBytes)
		case "error":
			str(d, &r.Error)
		default:
			d.unknown(key, recordKeys, 1)
		}
	}
}

// file decodes one element of "files"; null leaves it.
func (d *decoder) file(e *FileEntry) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		return
	case '{':
		d.off++
	default:
		d.fail("expected a file object or null")
		return
	}
	for first := true; ; {
		key, ok := d.nextKey(&first)
		if !ok {
			return
		}
		switch string(key) {
		case "path":
			str(d, &e.Path)
		case "name":
			str(d, &e.Name)
		case "is_dir":
			d.boolean(&e.IsDir)
		case "size":
			integer(d, &e.Size)
		case "read":
			str(d, &e.Read, ReadYes, ReadNo, ReadUnknown)
		case "write":
			str(d, &e.Write, ReadYes, ReadNo, ReadUnknown)
		case "owner":
			str(d, &e.Owner)
		case "mtime":
			d.timestamp(&e.ModTime)
		default:
			d.unknown(key, fileKeys, 3)
		}
	}
}

func (d *decoder) ftps(dst **FTPSInfo) {
	f := openObject(d, dst)
	if f == nil {
		return
	}
	for first := true; ; {
		key, ok := d.nextKey(&first)
		if !ok {
			return
		}
		switch string(key) {
		case "supported":
			d.boolean(&f.Supported)
		case "required_pre_login":
			d.boolean(&f.RequiredPreLogin)
		case "cert":
			c := openObject(d, &f.Cert)
			if c == nil {
				continue
			}
			for firstKey := true; ; {
				key, ok := d.nextKey(&firstKey)
				if !ok {
					break
				}
				switch string(key) {
				case "fingerprint":
					str(d, &c.FingerprintSHA256)
				case "common_name":
					str(d, &c.CommonName)
				case "self_signed":
					d.boolean(&c.SelfSigned)
				default:
					d.unknown(key, certKeys, 3)
				}
			}
		default:
			d.unknown(key, ftpsKeys, 2)
		}
	}
}

// openObject starts decoding a pointer-to-struct field: null clears it and
// returns nil; an object reuses or allocates the target and returns it with
// the brace consumed.
func openObject[T any](d *decoder, dst **T) *T {
	switch d.peek() {
	case 'n':
		d.literal("null")
		*dst = nil
		return nil
	case '{':
		d.off++
		if *dst == nil {
			*dst = new(T)
		}
		return *dst
	}
	d.fail("expected an object or null")
	return nil
}

// list decodes an array into *dst with elem; null clears it. Into an empty
// slice, the elements decode in buf and are copied out to an exact-size
// slice, so a long listing costs one allocation and no spare capacity.
// Into a slice a repeated key already filled, they decode in place as
// encoding/json does: old elements are reused within the capacity, and the
// slice grows by zero elements beyond it. An empty array decodes to an
// empty, non-nil slice.
func list[T any](d *decoder, dst *[]T, buf *[]T, elem func(*decoder, *T)) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		*dst = nil
		return
	case '[':
		d.off++
	default:
		d.fail("expected an array or null")
		return
	}
	s, fresh := *dst, cap(*dst) == 0
	if fresh {
		s = *buf
	}
	var zero T
	n := 0
	for first := true; d.nextItem(&first, ']'); n++ {
		if n == cap(s) {
			s = append(s[:n], zero)
		} else if s = s[:n+1]; fresh {
			s[n] = zero
		}
		elem(d, &s[n])
	}
	switch {
	case d.err != nil:
	case n == 0:
		*dst = []T{}
	case fresh:
		*buf = s
		*dst = make([]T, n)
		copy(*dst, s)
	default:
		*dst = s[:n]
	}
}

func stringElem(d *decoder, s *string) { str(d, s) }

// str decodes a string into dst; null leaves it. A value equal to one of
// known is stored as that constant rather than a fresh copy.
func str[T ~string](d *decoder, dst *T, known ...T) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		return
	case '"':
	default:
		d.fail("expected a string")
		return
	}
	raw := d.unquote()
	if d.err != nil {
		return
	}
	for _, k := range known {
		if string(raw) == string(k) {
			*dst = k
			return
		}
	}
	*dst = T(raw)
}

func (d *decoder) boolean(dst *bool) {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			*dst = true
		}
	case 'f':
		if d.literal("false") {
			*dst = false
		}
	case 'n':
		d.literal("null")
	default:
		d.fail("expected true, false or null")
	}
}

// integer decodes a JSON integer into dst; null leaves it. Fractions,
// exponents and values outside T's range are errors, as encoding/json makes
// them for an integer field.
func integer[T int | int64](d *decoder, dst *T) {
	if d.peek() == 'n' {
		d.literal("null")
		return
	}
	start := d.off
	if !d.number() {
		return
	}
	n, ok := parseInt(d.data[start:d.off])
	if !ok || int64(T(n)) != n {
		d.off = start
		d.fail("expected an integer in range")
		return
	}
	*dst = T(n)
}

// parseInt converts a JSON number with no fraction or exponent that fits in
// an int64.
func parseInt(b []byte) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// timestamp decodes through time.Time.UnmarshalJSON on the quoted bytes,
// exactly what encoding/json hands it; null leaves dst.
func (d *decoder) timestamp(dst *time.Time) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '"':
		start := d.off
		if d.unquote(); d.err == nil {
			if err := dst.UnmarshalJSON(d.data[start:d.off]); err != nil {
				d.off = start
				d.fail(err.Error())
			}
		}
	default:
		d.fail("expected a time string or null")
	}
}

// unknown skips the value of a key no field claims, refusing a key that
// matches one of known up to case.
func (d *decoder) unknown(key []byte, known []string, depth int) {
	for _, k := range known {
		if strings.EqualFold(string(key), k) {
			d.fail(fmt.Sprintf("key %q matches field %q only up to case", key, k))
			return
		}
	}
	d.skip(depth)
}

// skip validates and passes over one value of any kind; depth counts the
// containers already open around it.
func (d *decoder) skip(depth int) {
	switch d.peek() {
	case '{', '[':
		if depth >= maxDepth {
			d.fail("nesting too deep")
			return
		}
		open := d.data[d.off]
		d.off++
		for first := true; ; {
			if open == '{' {
				if _, ok := d.nextKey(&first); !ok {
					return
				}
			} else if !d.nextItem(&first, ']') {
				return
			}
			d.skip(depth + 1)
		}
	case '"':
		d.unquote()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

// nextKey moves to the next member of the object being read and returns its
// unquoted key with the colon consumed, or false after the closing brace or
// on error. *first is true before the first member.
func (d *decoder) nextKey(first *bool) ([]byte, bool) {
	if !d.nextItem(first, '}') {
		return nil, false
	}
	if d.peek() != '"' {
		d.fail("expected a key")
		return nil, false
	}
	key := d.unquote()
	if d.peek() != ':' {
		d.fail("expected ':'")
		return nil, false
	}
	d.off++
	return key, d.err == nil
}

// nextItem moves to the next member or element of the object or array
// being read, whose closing byte is end, or returns false after end or on
// error. *first is true before the first item.
func (d *decoder) nextItem(first *bool, end byte) bool {
	c := d.peek()
	if d.err != nil {
		return false
	}
	if c == end {
		d.off++
		return false
	}
	if *first {
		*first = false
		return true
	}
	if c != ',' {
		d.fail(fmt.Sprintf("expected ',' or '%c'", end))
		return false
	}
	d.off++
	d.peek()
	return d.err == nil
}

// peek skips whitespace and returns the next byte, failing at end of input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	if d.skipSpace(); d.err == nil && d.off < len(d.data) {
		return d.data[d.off]
	}
	d.fail("unexpected end of line")
	return 0
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// literal consumes lit (true, false or null) and reports whether it was there.
func (d *decoder) literal(lit string) bool {
	if d.err == nil && len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	d.fail("invalid literal")
	return false
}

// number consumes a JSON number and reports whether it was one. Leading
// zeros are refused, as the JSON grammar refuses them.
func (d *decoder) number() bool {
	if d.err != nil {
		return false
	}
	i := d.off
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch digits := d.digits(i); {
	case digits == 0:
		d.fail("invalid number")
		return false
	case d.data[i] == '0' && digits > 1:
		d.fail("leading zero in number")
		return false
	default:
		i += digits
	}
	if i < len(d.data) && d.data[i] == '.' {
		n := d.digits(i + 1)
		if n == 0 {
			d.fail("invalid number")
			return false
		}
		i += 1 + n
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		n := d.digits(i)
		if n == 0 {
			d.fail("invalid number")
			return false
		}
		i += n
	}
	d.off = i
	return true
}

func (d *decoder) digits(i int) int {
	n := 0
	for i+n < len(d.data) && '0' <= d.data[i+n] && d.data[i+n] <= '9' {
		n++
	}
	return n
}

// unquote reads the string at d.off, leaving d.off past its closing quote,
// and returns its contents. A string of plain ASCII is returned in place;
// any other is decoded into d.scratch as encoding/json decodes it: \u
// escapes and surrogate pairs become their runes, lone surrogates and
// invalid UTF-8 become U+FFFD. The result is valid until the next call.
func (d *decoder) unquote() []byte {
	start := d.off + 1
	i := start
	for i < len(d.data) && plain[d.data[i]] {
		i++
	}
	if i < len(d.data) && d.data[i] == '"' {
		d.off = i + 1
		return d.data[start:i]
	}
	b := append(d.scratch[:0], d.data[start:i]...)
	for {
		if i >= len(d.data) {
			d.off = i
			d.fail("unterminated string")
			return nil
		}
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			d.scratch = b
			return b
		case c == '\\':
			r, n := d.escape(i)
			if n == 0 {
				return nil
			}
			b = utf8.AppendRune(b, r)
			i += n
		case c < ' ':
			d.off = i
			d.fail("control character in string")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
}

// escape decodes the escape sequence at d.data[i] into its rune and length,
// or fails and returns length 0. A \u surrogate pairs with an immediately
// following \u low surrogate; unpaired, it stands for U+FFFD.
func (d *decoder) escape(i int) (rune, int) {
	if i+1 < len(d.data) {
		switch d.data[i+1] {
		case '"', '\\', '/':
			return rune(d.data[i+1]), 2
		case 'b':
			return '\b', 2
		case 'f':
			return '\f', 2
		case 'n':
			return '\n', 2
		case 'r':
			return '\r', 2
		case 't':
			return '\t', 2
		case 'u':
			r := d.hex4(i)
			if r < 0 {
				break
			}
			if !utf16.IsSurrogate(r) {
				return r, 6
			}
			if pair := utf16.DecodeRune(r, d.hex4(i+6)); pair != utf8.RuneError {
				return pair, 12
			}
			return utf8.RuneError, 6
		}
	}
	d.off = i
	d.fail("invalid escape in string")
	return 0, 0
}

// hex4 returns the code unit of the \uXXXX escape at d.data[i], or -1.
func (d *decoder) hex4(i int) rune {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// fail records the first error and moves to the end of input, so every
// later step stops.
func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.off, msg)
	}
	d.off = len(d.data)
}
