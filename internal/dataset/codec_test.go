package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The codec is held against encoding/json, which wrote and read the ledger
// before it: for every record the Writer's bytes equal json.Encoder's, and
// every line the decoder accepts decodes as json.Unmarshal decodes it.

// stringPieces are the fragments fixture strings are built from: each one
// exercises a distinct escaping or decoding rule.
var stringPieces = []string{
	"pub", "220 ProFTPD 1.3.5 Server", "a b", "/", "\x7f",
	"<", ">", "&", `"`, `\`,
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f",
	"\u2028", "\u2029",
	"😀", "\U0001F4C1", "é", "中", "\ufffd",
	"\xff", "\xc3", "\xed\xa0\x80", "\xf0\x9f\x98",
}

// wholeStrings are whole values the decoder shares as constants.
var wholeStrings = []string{"", "yes", "no", "unk", "not-tested", "validated", "not-validated"}

func randString(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return ""
	case 1:
		return wholeStrings[rng.Intn(len(wholeStrings))]
	}
	var b strings.Builder
	for n := 1 + rng.Intn(4); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

var fixtureZones = []*time.Location{
	time.UTC,
	time.FixedZone("", 0),
	time.FixedZone("EST", -5*3600),
	time.FixedZone("IST", 5*3600+30*60),
	time.FixedZone("edge", 23*3600+59*60),
	time.FixedZone("west", -(23*3600 + 59*60)),
	time.FixedZone("seconds", 3600+17),
}

func randTime(rng *rand.Rand) time.Time {
	loc := fixtureZones[rng.Intn(len(fixtureZones))]
	ns := 0
	if rng.Intn(2) == 0 {
		ns = rng.Intn(1e9)
	}
	switch rng.Intn(6) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(0, 1, 1, 0, 0, 0, ns, loc)
	case 2:
		return time.Date(9999, 12, 31, 23, 59, 59, ns, loc)
	}
	return time.Unix(rng.Int63n(4e9), int64(ns)).In(loc)
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	}
	return rng.Int63n(1<<40) - 1<<39
}

var timeType = reflect.TypeOf(time.Time{})

// fill sets every exported field reachable from v from rng: strings, bools,
// integers, times, slices (nil, empty or filled), pointers (nil or filled)
// and nested structs. A kind it has no case for fails the test, so a field
// added to the schema cannot slip past the codec tests unfilled.
func fill(t testing.TB, rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(randString(rng))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(randInt(rng))
	case reflect.Slice:
		switch n := rng.Intn(5); n {
		case 0:
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < v.Len(); i++ {
				fill(t, rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			p := reflect.New(v.Type().Elem())
			fill(t, rng, p.Elem())
			v.Set(p)
		}
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(randTime(rng)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s: unexported field", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, rng, v.Field(i))
		}
	default:
		t.Fatalf("fixture generator has no case for %s", v.Type())
	}
}

func randRecord(t testing.TB, rng *rand.Rand) *HostRecord {
	rec := &HostRecord{}
	fill(t, rng, reflect.ValueOf(rec).Elem())
	return rec
}

// jsonLine is what json.Encoder wrote for rec before the codec.
func jsonLine(rec *HostRecord) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// checkDecode decodes line with the codec and with json.Unmarshal and fails
// unless both accept it with equal results.
func checkDecode(t *testing.T, line []byte) *HostRecord {
	t.Helper()
	var d decoder
	var got, want HostRecord
	if err := d.decodeRecord(line, &got); err != nil {
		t.Fatalf("codec refused %q: %v", line, err)
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("encoding/json refused %q: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoders disagree on %q:\ncodec: %#v\njson:  %#v", line, got, want)
	}
	return &got
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(1))
	var line []byte
	for i := 0; i < n; i++ {
		rec := randRecord(t, rng)
		want, err := jsonLine(rec)
		if err != nil {
			t.Fatalf("record %d: encoding/json: %v", i, err)
		}
		if line, err = AppendRecord(line[:0], rec); err != nil {
			t.Fatalf("record %d: AppendRecord: %v", i, err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("record %d: bytes differ\ncodec: %s\njson:  %s", i, line, want)
		}
		checkDecode(t, line)
	}
}

func TestWriterRefusesUnrepresentableTimes(t *testing.T) {
	for _, ts := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	} {
		for _, rec := range []*HostRecord{
			{IP: "1.2.3.4", ScannedAt: ts},
			{IP: "1.2.3.4", Files: []FileEntry{{Path: "/a", ModTime: ts}}},
		} {
			_, jerr := jsonLine(rec)
			var buf bytes.Buffer
			w := NewWriter(&buf)
			err := w.Write(rec)
			if err == nil || jerr == nil {
				t.Fatalf("%v: Writer error %v, encoding/json error %v; want both", ts, err, jerr)
			}
			if want := jerr.Error()[strings.Index(jerr.Error(), "Time.MarshalJSON"):]; !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%v: Writer error %q, want it to end %q", ts, err, want)
			}
			if w.Flush(); buf.Len() != 0 || w.Count() != 0 {
				t.Errorf("%v: failed record left %d bytes, count %d", ts, buf.Len(), w.Count())
			}
		}
	}
}

func TestCodecKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{HostRecord{}, recordKeys},
		{FileEntry{}, fileKeys},
		{FTPSInfo{}, ftpsKeys},
		{CertInfo{}, certKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s: codec keys %v, tags %v", typ, c.keys, tags)
		}
	}
}

// nulls renders keys as members with null values.
func nulls(keys []string) string {
	members := make([]string, len(keys))
	for i, k := range keys {
		members[i] = fmt.Sprintf("%q:null", k)
	}
	return strings.Join(members, ",")
}

// TestCodecLenience lists inputs outside what the Writer produces that both
// decoders accept, with equal results.
func TestCodecLenience(t *testing.T) {
	cases := map[string]string{
		"empty object": `{}`,
		"reordered keys and whitespace everywhere": " \t{ \"ftp\" : true ,\n\"ip\":\"1.2.3.4\" ,\r\"files\" : [ { \"name\" : \"a\" ,\"path\":\"/a\" , \"size\" : 7 } , { } ] , " +
			"\"feat\" : [ \"UTF8\" , \"MDTM\" ] , \"ftps\" : { \"cert\" : { \"self_signed\" : true } , \"supported\" : false } , \"port_open\":false }\t \r\n",
		"unknown scalar, array and object keys": `{"ip":"x","n":-1.5e+10,"s":"\u00e9\"","t":true,"f":false,"z":null,` +
			`"arr":[1,"a",{"b":[]},[[]],null],"obj":{"k":{"n":null,"deep":[{"x":{}}]}},"files":[{"path":"/a","extra":[1,{"y":2}]}],` +
			`"ftps":{"supported":true,"extra":{},"cert":{"common_name":"c","extra":"e"}}}`,
		"null for every field": "{" + nulls(recordKeys) + `,"files":[null,{` + nulls(fileKeys) + `}],"ftps":{` +
			nulls(ftpsKeys) + `,"cert":{` + nulls(certKeys) + "}}}",
		"null over earlier values": `{"ip":"a","ip":null,"feat":["x"],"feat":null,"ftps":{"supported":true},"ftps":null,"scanned_at":"2015-06-18T00:00:00Z","scanned_at":null}`,
		"escapes": `{"ip":"\/\u0041\u00e9\u4e2d\ud83d\ude00\"\\\b\f\n\r\t","banner":"\ud800","help":"x\udc00y\ud800\u0041\ud800\ud800\udc00",` +
			`"syst":"\uD83D\uDE00\u2028\u0000","\u0069p2":1,"\u0069p":"escaped key"}`,
		"invalid UTF-8":               "{\"site\":\"raw \xff\xc3 bytes \xed\xa0\x80 \xf0\x9f\x98\",\"x\xff\":1}",
		"empty arrays decode non-nil": `{"feat":[],"files":[],"write_evidence":[]}`,
		"repeated keys decode into the first value": `{"files":[{"path":"a","size":5},{"path":"b","owner":"o"}],"files":[{"name":"c"}],"files":[{},{}],` +
			`"feat":["a","b"],"feat":[null],"ftps":{"supported":true,"cert":{"common_name":"c"}},"ftps":{"cert":{"self_signed":true}}}`,
		"integer edges":                        `{"requests_used":-0,"skipped_dirs":9223372036854775807,"retries":-9223372036854775808,"data_bytes":0,"files":[{"size":-1}]}`,
		"time zones":                           `{"scanned_at":"2015-06-18T01:02:03.5+05:30","files":[{"mtime":"0000-01-01T00:00:00-23:59"},{"mtime":"9999-12-31T23:59:59.999999999Z"}]}`,
		"enum values":                          `{"port_check":"validated","files":[{"read":"yes","write":"no"},{"read":"unk","write":"maybe"}]}`,
		"deepest nesting encoding/json allows": `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkDecode(t, []byte(in)) })
	}

	// Spot-check the cases whose result is easy to get wrong.
	r := checkDecode(t, []byte(cases["repeated keys decode into the first value"]))
	if want := []FileEntry{{Path: "a", Name: "c", Size: 5}, {Path: "b", Owner: "o"}}; !reflect.DeepEqual(r.Files, want) {
		t.Errorf("repeated files: %+v, want %+v", r.Files, want)
	}
	r = checkDecode(t, []byte(cases["empty arrays decode non-nil"]))
	if r.Feat == nil || r.Files == nil {
		t.Errorf("empty arrays decoded nil: %+v", r)
	}
	r = checkDecode(t, []byte(cases["enum values"]))
	if r.PortCheck != PortValidated || r.Files[0].Read != ReadYes || r.Files[1].Write != "maybe" {
		t.Errorf("enum values: %+v", r)
	}
}

// TestCodecStrictness lists inputs the decoder refuses. encoding/json refuses
// them too, except the two deliberate differences: case-folded keys and a
// bare null.
func TestCodecStrictness(t *testing.T) {
	cases := []struct {
		in         string
		jsonAccept bool
	}{
		{`null`, true},
		{` null `, true},
		{`{"IP":"1.2.3.4"}`, true},
		{`{"Port_Open":true}`, true},
		{`{"files":[{"PATH":"/a"}]}`, true},
		{`{"ftps":{"Supported":true}}`, true},
		{`{"ftps":{"cert":{"Common_Name":"c"}}}`, true},
		{"{\"ſervice\":\"x\"}", true}, // U+017F folds to 's'
		{``, false},
		{`   `, false},
		{`[]`, false},
		{`"x"`, false},
		{`{"ip":"x"} {}`, false},
		{`{"ip":"x"}x`, false},
		{`{"ip":"x",}`, false},
		{`{,}`, false},
		{`{"ip" "x"}`, false},
		{`{"ip":"x" "ftp":true}`, false},
		{`{"ip":1}`, false},
		{`{"ip":["x"]}`, false},
		{`{"ip":"x`, false},
		{`{"ip":"x"`, false},
		{"{\"ip\":\"a\x01\"}", false},
		{`{"ip":"\'"}`, false},
		{`{"ip":"\x41"}`, false},
		{`{"ip":"\u12"}`, false},
		{`{"ip":"\u12g4"}`, false},
		{`{"ip":"\ud800\u12g4"}`, false},
		{`{"port_open":"true"}`, false},
		{`{"port_open":tru}`, false},
		{`{"port_open":nul}`, false},
		{`{"port_open":1}`, false},
		{`{"requests_used":1.0}`, false},
		{`{"requests_used":1e2}`, false},
		{`{"requests_used":01}`, false},
		{`{"requests_used":-}`, false},
		{`{"requests_used":"1"}`, false},
		{`{"data_bytes":9223372036854775808}`, false},
		{`{"data_bytes":-9223372036854775809}`, false},
		{`{"data_bytes":100000000000000000000}`, false},
		{`{"scanned_at":"yesterday"}`, false},
		{`{"scanned_at":5}`, false},
		{`{"feat":"UTF8"}`, false},
		{`{"feat":[1]}`, false},
		{`{"feat":["a",]}`, false},
		{`{"files":{}}`, false},
		{`{"files":["a"]}`, false},
		{`{"ftps":[]}`, false},
		{`{"ftps":{"cert":true}}`, false},
		{`{"x":[1,]}`, false},
		{`{"x":-}`, false},
		{`{"x":1.}`, false},
		{`{"x":.5}`, false},
		{`{"x":1e}`, false},
		{`{"x":01}`, false},
		{`{"x":{"a"}}`, false},
		{`{"x":{"a":1,}}`, false},
		{`{"x":truex}`, false},
		{`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, false},
	}
	for _, c := range cases {
		var d decoder
		var rec HostRecord
		if err := d.decodeRecord([]byte(c.in), &rec); err == nil {
			t.Errorf("codec accepted %.80q", c.in)
		}
		var v HostRecord
		if jerr := json.Unmarshal([]byte(c.in), &v); (jerr == nil) != c.jsonAccept {
			t.Errorf("%.80q: encoding/json error %v, want accepted=%v", c.in, jerr, c.jsonAccept)
		}
	}
}

// FuzzDecodeRecord: whatever the decoder accepts, encoding/json accepts and
// decodes to an equal record, and the record re-encodes to json.Encoder's
// bytes.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"ip":"1.2.3.4","scanned_at":"2015-06-18T00:00:00Z","port_open":true,"ftp":true,"anonymous_ok":true,"files":[{"path":"/pub","name":"pub","is_dir":true,"read":"yes","mtime":"0001-01-01T00:00:00Z"}],"ftps":{"supported":true,"cert":{"fingerprint":"ab","common_name":"c","self_signed":false}}}`))
	f.Add([]byte(`{"x":[1,{"y":null}],"ip":"\ud83d\ude00\u003e"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d decoder
		var got HostRecord
		if d.decodeRecord(data, &got) != nil {
			return
		}
		var want HostRecord
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("codec accepted %q, encoding/json refused it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on %q:\ncodec: %#v\njson:  %#v", data, got, want)
		}
		line, err := AppendRecord(nil, &got)
		jline, jerr := jsonLine(&got)
		if (err == nil) != (jerr == nil) || !bytes.Equal(line, jline) {
			t.Fatalf("re-encoding %q:\ncodec: %s (%v)\njson:  %s (%v)", data, line, err, jline, jerr)
		}
	})
}

// FuzzReadAll feeds whole ledgers: truncated last lines, blank lines, CRLF
// and garbage. ReadAll must not panic; an error names the first line the
// decoder refuses, and success returns one record per non-blank line.
// PrefixSize counts records as ReadAll does: for every n, the first
// PrefixSize(n) bytes read back as exactly the first n records, and there
// is no prefix of n+1 records.
func FuzzReadAll(f *testing.F) {
	good := `{"ip":"1.2.3.4","port_open":true,"ftp":true,"anonymous_ok":false}`
	f.Add([]byte(good + "\n" + good + "\n"))
	f.Add([]byte(good + "\r\n\r\n" + good))
	f.Add([]byte(good + "\n" + good[:30]))
	f.Add([]byte("\n\n" + good + "\n\x00\xff garbage\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data))
		var want []HostRecord
		for i, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var d decoder
			var rec HostRecord
			if d.decodeRecord(line, &rec) != nil {
				if prefix := fmt.Sprintf("dataset: line %d: ", i+1); err == nil || !strings.HasPrefix(err.Error(), prefix) {
					t.Fatalf("line %d is bad; ReadAll returned %v, want an error starting %q", i+1, err, prefix)
				}
				return
			}
			want = append(want, rec)
		}
		if err != nil {
			t.Fatalf("every line decodes, ReadAll failed: %v", err)
		}
		if len(recs) != len(want) {
			t.Fatalf("ReadAll returned %d records for %d non-blank lines", len(recs), len(want))
		}
		for i := range recs {
			if !reflect.DeepEqual(*recs[i], want[i]) {
				t.Fatalf("record %d: ReadAll %+v, line decode %+v", i, *recs[i], want[i])
			}
		}
		for n := 0; n <= len(recs); n++ {
			size, err := PrefixSize(bytes.NewReader(data), n)
			if err != nil {
				t.Fatalf("PrefixSize(%d) of %d records: %v", n, len(recs), err)
			}
			prefix, err := ReadAll(bytes.NewReader(data[:size]))
			if err != nil || len(prefix) != n {
				t.Fatalf("the %d-record prefix (%d bytes) reads back as %d records (%v)", n, size, len(prefix), err)
			}
		}
		if _, err := PrefixSize(bytes.NewReader(data), len(recs)+1); err == nil {
			t.Fatalf("PrefixSize(%d) of %d records succeeded", len(recs)+1, len(recs))
		}
	})
}
