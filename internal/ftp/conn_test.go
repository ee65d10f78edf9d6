package ftp

import (
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// pipePair builds a connected Conn pair over net.Pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestConnCommandRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	done := make(chan error, 1)
	go func() { done <- client.SendCommand("USER", "anonymous") }()
	cmd, err := server.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand: %v", err)
	}
	if cmd.Name != "USER" || cmd.Arg != "anonymous" {
		t.Errorf("got %+v", cmd)
	}
	if err := <-done; err != nil {
		t.Fatalf("SendCommand: %v", err)
	}
}

func TestConnReplyRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	go server.SendReply(NewReply(220, "ProFTPD 1.3.5 Server ready."))
	r, err := client.ReadReply()
	if err != nil {
		t.Fatalf("ReadReply: %v", err)
	}
	if r.Code != 220 || r.Lines[0] != "ProFTPD 1.3.5 Server ready." {
		t.Errorf("got %+v", r)
	}
}

func TestConnMultiLineReply(t *testing.T) {
	client, server := pipePair(t)
	go server.SendReply(NewReply(211, "Features:", "MDTM", "SIZE", "End"))
	r, err := client.ReadReply()
	if err != nil {
		t.Fatalf("ReadReply: %v", err)
	}
	if r.Code != 211 || len(r.Lines) != 4 || r.Lines[1] != "MDTM" || r.Lines[3] != "End" {
		t.Errorf("got %+v", r)
	}
}

// TestConnMultiLineWithCodePrefixedContinuations covers servers that prefix
// every continuation line with "ddd-" (wu-ftpd style).
func TestConnMultiLineWithCodePrefixedContinuations(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewConn(a)
	go func() {
		b.Write([]byte("230-Welcome!\r\n230-Enjoy your stay.\r\n230 Login successful.\r\n"))
	}()
	r, err := client.ReadReply()
	if err != nil {
		t.Fatalf("ReadReply: %v", err)
	}
	if r.Code != 230 || len(r.Lines) != 3 || r.Lines[1] != "Enjoy your stay." {
		t.Errorf("got %+v", r)
	}
}

// TestConnBareLFTolerance covers sloppy servers that terminate lines with a
// bare LF.
func TestConnBareLFTolerance(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewConn(a)
	go b.Write([]byte("220 hi there\n"))
	r, err := client.ReadReply()
	if err != nil {
		t.Fatalf("ReadReply: %v", err)
	}
	if r.Code != 220 || r.Lines[0] != "hi there" {
		t.Errorf("got %+v", r)
	}
}

func TestConnLineTooLong(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewConn(a)
	go func() {
		b.Write([]byte("220 "))
		junk := strings.Repeat("x", MaxLineLen+10)
		b.Write([]byte(junk))
		b.Write([]byte("\r\n"))
	}()
	if _, err := client.ReadReply(); err == nil {
		t.Fatal("want error for oversized line")
	}
}

func TestConnReadTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewConn(a)
	client.Timeout = 20 * time.Millisecond
	start := time.Now()
	_, err := client.ReadReply()
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestConnCmd(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		cmd, err := server.ReadCommand()
		if err != nil || cmd.Name != "SYST" {
			server.SendReply(NewReply(500, "bad"))
			return
		}
		server.SendReply(NewReply(215, "UNIX Type: L8"))
	}()
	r, err := client.Cmd("SYST", "")
	if err != nil {
		t.Fatalf("Cmd: %v", err)
	}
	if r.Code != 215 {
		t.Errorf("code = %d", r.Code)
	}
}

// TestConnUpgradeDiscardsBufferedBytes: bytes read ahead from the old
// connection before Upgrade are dropped, the reused buffers serve the new
// connection in both directions, and the timeout survives.
func TestConnUpgradeDiscardsBufferedBytes(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewConn(a)
	client.Timeout = 5 * time.Second
	// One write, so the stray line lands in the reader's buffer together
	// with the 234 reply.
	go b.Write([]byte("234 AUTH TLS ok\r\n999 stray\r\n"))
	if r, err := client.ReadReply(); err != nil || r.Code != 234 {
		t.Fatalf("ReadReply = %+v, %v", r, err)
	}
	x, y := net.Pipe()
	defer x.Close()
	defer y.Close()
	client.Upgrade(x)
	if client.NetConn() != x || client.Timeout != 5*time.Second {
		t.Fatal("Upgrade did not rebind the conn or lost the timeout")
	}
	server := NewConn(y)
	go func() {
		if cmd, err := server.ReadCommand(); err == nil && cmd.Name == "PBSZ" {
			server.SendReply(NewReply(200, "PBSZ=0"))
		}
	}()
	r, err := client.Cmd("PBSZ", "0")
	if err != nil || r.Code != 200 {
		t.Fatalf("Cmd after Upgrade = %+v, %v; the stray line must be discarded", r, err)
	}
	if allocs := testing.AllocsPerRun(10, func() { client.Upgrade(x) }); allocs != 0 {
		t.Errorf("Upgrade allocates %.0f times", allocs)
	}
}

// Property: every encodable HostPort survives Encode → ParseHostPort and
// FormatPASVReply → ParsePASVReply unchanged.
func TestHostPortRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d byte, port uint16) bool {
		hp := HostPort{IP: [4]byte{a, b, c, d}, Port: port}
		back, err := ParseHostPort(hp.Encode())
		if err != nil || back != hp {
			return false
		}
		back2, err := ParsePASVReply(FormatPASVReply(hp))
		return err == nil && back2 == hp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: EPSV replies round-trip for every port.
func TestEPSVRoundTripProperty(t *testing.T) {
	f := func(port uint16) bool {
		got, err := ParseEPSVReply(FormatEPSVReply(port))
		return err == nil && got == port
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: parsing a rendered single-line reply returns the original code
// and text for all valid codes and printable text.
func TestReplyRenderParseProperty(t *testing.T) {
	f := func(codeSeed uint16, raw string) bool {
		code := 100 + int(codeSeed)%500
		text := strings.Map(func(r rune) rune {
			if r == '\r' || r == '\n' {
				return ' '
			}
			return r
		}, raw)
		rendered := NewReply(code, text).String()
		gotCode, gotText, multi, err := parseReplyLine(strings.TrimRight(rendered, "\r\n"))
		return err == nil && gotCode == code && gotText == text && !multi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
