package ftpserver

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestXferlogFormat: transfer events render exact wu-ftpd xferlog(5) lines;
// non-transfer events are ignored.
func TestXferlogFormat(t *testing.T) {
	var buf bytes.Buffer
	sink := NewXferlogSink(&buf)
	at := time.Date(2026, time.August, 8, 9, 30, 5, 0, time.UTC)
	sink.Event(Event{Kind: EventDownload, RemoteIP: "198.51.100.9", User: "anonymous",
		Path: "/pub/hello.txt", Bytes: 11, Time: at})
	sink.Event(Event{Kind: EventUpload, RemoteIP: "198.51.100.9", User: "admin",
		Path: "/incoming/evil name.bin", Bytes: 512, Time: at})
	sink.Event(Event{Kind: EventLoginOK, RemoteIP: "198.51.100.9", Time: at})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := "Sat Aug  8 09:30:05 2026 0 198.51.100.9 11 /pub/hello.txt b _ o a anonymous ftp 0 * c\n" +
		"Sat Aug  8 09:30:05 2026 0 198.51.100.9 512 /incoming/evil_name.bin b _ i r admin ftp 0 * c\n"
	if got := buf.String(); got != want {
		t.Errorf("xferlog:\n got %q\nwant %q", got, want)
	}
}

// TestXferlogFieldCount: every line holds exactly the 14 space-separated
// xferlog fields (the date itself spans 5), even for hostile filenames.
func TestXferlogFieldCount(t *testing.T) {
	var buf bytes.Buffer
	sink := NewXferlogSink(&buf)
	sink.Event(Event{Kind: EventUpload, RemoteIP: "203.0.113.5",
		Path: "/incoming/a b\tc\nd", Bytes: 1, Time: time.Unix(0, 0).UTC()})
	sink.Close()
	line := strings.TrimSuffix(buf.String(), "\n")
	if fields := strings.Fields(line); len(fields) != 18 {
		t.Errorf("xferlog line has %d fields, want 18: %q", len(fields), line)
	}
}

// TestJSONLSink: events round-trip through the JSONL audit stream.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Event(Event{Kind: EventLoginFail, RemoteIP: "203.0.113.5", User: "root",
		Pass: "hunter2", Time: time.Unix(1754600000, 0).UTC()})
	sink.Event(Event{Kind: EventDownload, RemoteIP: "203.0.113.5", Path: "/pub/x", Bytes: 42,
		Time: time.Unix(1754600001, 0).UTC()})
	sink.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev struct {
		Kind  string `json:"kind"`
		Pass  string `json:"pass"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "login_fail" || ev.Pass != "hunter2" {
		t.Errorf("first line decoded as %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "download" || ev.Bytes != 42 {
		t.Errorf("second line decoded as %+v", ev)
	}
}

// TestMultiObserver: fan-out reaches every sink, drops nils, and
// short-circuits to nil when nothing listens (preserving the server's
// no-observer fast path).
func TestMultiObserver(t *testing.T) {
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver of nils must be nil")
	}
	a, b := newRecorder(), newRecorder()
	if got := MultiObserver(nil, a); got != Observer(a) {
		t.Error("single observer must short-circuit to itself")
	}
	m := MultiObserver(a, nil, b)
	m.Event(Event{Kind: EventConnect})
	if a.kinds()[EventConnect] != 1 || b.kinds()[EventConnect] != 1 {
		t.Error("fan-out missed a sink")
	}
}

// TestXferlogThroughServer: a real session over simnet — login, download,
// upload — lands in both audit sinks wired through MultiObserver, with the
// sizes the wire actually carried.
func TestXferlogThroughServer(t *testing.T) {
	var xfer, audit bytes.Buffer
	xs, js := NewXferlogSink(&xfer), NewJSONLSink(&audit)
	cfg := anonConfig()
	cfg.AnonWritable = true
	done := newRecorder()
	cfg.Observer = MultiObserver(xs, js, done)
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	dc := env.openPassive(t, c)
	if r, err := c.Cmd("RETR", "/pub/hello.txt"); err != nil || r.Code != 150 {
		t.Fatalf("RETR: %v %v", r, err)
	}
	content := make([]byte, 64)
	n, _ := dc.Read(content)
	dc.Close()
	c.ReadReply()

	dc = env.openPassive(t, c)
	c.Cmd("STOR", "/incoming/up.bin")
	dc.Write([]byte("payload"))
	dc.Close()
	c.ReadReply()
	c.Cmd("QUIT", "")
	// done sees EventDisconnect after both audit sinks have.
	done.waitDisconnect(t)
	xs.Close()
	js.Close()

	lines := strings.Split(strings.TrimSpace(xfer.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("xferlog recorded %d transfers, want 2:\n%s", len(lines), xfer.String())
	}
	if !strings.Contains(lines[0], " o a anonymous ftp 0 * c") || !strings.Contains(lines[0], "/pub/hello.txt") {
		t.Errorf("download line malformed: %q", lines[0])
	}
	if !strings.Contains(lines[0], " 11 ") || n != 11 {
		t.Errorf("download size mismatch: wire %d bytes, line %q", n, lines[0])
	}
	if !strings.Contains(lines[1], " 7 /incoming/up.bin b _ i a ") {
		t.Errorf("upload line malformed: %q", lines[1])
	}
	if got := strings.Count(audit.String(), `"kind":"command"`); got < 4 {
		t.Errorf("JSONL audit recorded %d commands, want the full session", got)
	}
}
