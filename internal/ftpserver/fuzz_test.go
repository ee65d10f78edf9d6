package ftpserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// fuzzRequestLimit is the fuzzed server's RequestLimit; an input runs at
// most one command past it, the one that draws the 421.
const fuzzRequestLimit = 24

// FuzzServerSession feeds arbitrary command bytes, one command per line, to
// a writable server on a vfs tree over simnet. The harness is the client:
// it dials every address a 227 or 229 reply advertises, so a passive
// transfer never sits out openData's accept timer, uploads a few bytes for
// STOR and APPE and drains every other transfer. Per input it checks that
// the server does not panic, that every reply opens with a three-digit code
// and every line ends in CRLF, and that the ftpserver.active gauge is back
// at zero once the session ends: sessions are pooled, and a session used
// after its release would leave the gauge off or trip the race detector.
func FuzzServerSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := obs.NewRegistry()
		cfg := anonConfig()
		cfg.AnonWritable = true
		cfg.RequestLimit = fuzzRequestLimit
		cfg.Metrics = reg
		env := newEnv(t, cfg)
		nc, err := env.nw.DialFrom(env.clientIP, env.serverIP, 21)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, _, err := fuzzReply(t, nc, br); err != nil {
			t.Fatalf("banner: %v", err)
		}

		var dc net.Conn
		defer func() {
			if dc != nil {
				dc.Close()
			}
		}()
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		lines = lines[:min(len(lines), fuzzRequestLimit+1)]
	session:
		for _, raw := range lines {
			// Telnet IAC handling is the ftp package's concern; without
			// IAC bytes the server and the harness parse a line alike.
			line := string(bytes.ReplaceAll(raw, []byte{0xff}, nil))
			if _, err := io.WriteString(nc, line+"\r\n"); err != nil {
				break
			}
			code, text, err := fuzzReply(t, nc, br)
			if err != nil {
				break
			}
			switch {
			case code == ftp.CodePassive, code == ftp.CodeExtendedPassive:
				if dc != nil {
					dc.Close()
				}
				dc = fuzzDialPassive(env, code, text)
			case code/100 == 1:
				if dc != nil {
					cmd, _ := ftp.ParseCommand(line)
					fuzzTransfer(t, dc, cmd.Name == "STOR" || cmd.Name == "APPE")
					dc = nil
				}
				if _, _, err := fuzzReply(t, nc, br); err != nil {
					break session
				}
			}
		}
		// End the session if the input did not, and read it out.
		io.WriteString(nc, "QUIT\r\n")
		for {
			if _, _, err := fuzzReply(t, nc, br); err != nil {
				break
			}
		}
		waitGauge(t, reg.Gauge("ftpserver.active"), 0, 2*time.Second)
	})
}

// fuzzReply reads one reply and checks its framing: an opening line of a
// three-digit code and a space or hyphen, then for a multi-line reply every
// line up to the one that repeats the code and a space, each line ending in
// CRLF. It returns io.EOF when the server has closed the session between
// replies, and fails the test on anything else.
func fuzzReply(t *testing.T, nc net.Conn, br *bufio.Reader) (int, string, error) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	code := ""
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" && code == "" {
			return 0, "", io.EOF
		}
		if err != nil {
			t.Fatalf("reading reply: %q %v", line, err)
		}
		if !strings.HasSuffix(line, "\r\n") {
			t.Fatalf("reply line %q does not end in CRLF", line)
		}
		if code == "" {
			if len(line) < 6 || line[0] < '1' || line[0] > '5' ||
				line[1] < '0' || line[1] > '9' || line[2] < '0' || line[2] > '9' ||
				(line[3] != ' ' && line[3] != '-') {
				t.Fatalf("reply line %q does not open with a code", line)
			}
			code = line[:3]
			if line[3] == '-' {
				continue
			}
		} else if !strings.HasPrefix(line, code+" ") {
			continue
		}
		n, _ := strconv.Atoi(code)
		return n, line[4 : len(line)-2], nil
	}
}

// fuzzDialPassive dials the data address a 227 or 229 reply advertises,
// or returns nil when the reply carries none.
func fuzzDialPassive(env *testEnv, code int, text string) net.Conn {
	var addr string
	if code == ftp.CodePassive {
		hp, err := ftp.ParsePASVReply(text)
		if err != nil {
			return nil
		}
		addr = hp.Addr()
	} else {
		port, err := ftp.ParseEPSVReply(text)
		if err != nil {
			return nil
		}
		addr = simnet.Addr{IP: env.serverIP, Port: port}.String()
	}
	dc, err := env.nw.Dial(env.clientIP, addr)
	if err != nil {
		return nil
	}
	return dc
}

// fuzzTransfer runs the client side of one transfer: an upload sends a few
// bytes and closes, a download drains to the server's close. A data conn
// the server neither closes nor drains within the deadline fails the test.
func fuzzTransfer(t *testing.T, dc net.Conn, upload bool) {
	t.Helper()
	defer dc.Close()
	dc.SetDeadline(time.Now().Add(10 * time.Second))
	var err error
	if upload {
		_, err = dc.Write([]byte("fuzz payload\n"))
	} else {
		_, err = io.Copy(io.Discard, dc)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("data conn stalled: %v", err)
	}
}
