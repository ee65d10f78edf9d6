package ftp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// MaxLineLen caps control-channel lines. Real servers emit long banners and
// directory names, but an unbounded reader is a denial-of-service hazard for
// a crawler talking to adversarial hosts.
const MaxLineLen = 8192

// MaxReplyBytes caps a complete (possibly multi-line) reply. A garbage-
// spewing server can stay under MaxLineLen per line while streaming an
// endless multi-line reply; the total cap bounds memory and forces a typed
// failure instead of unbounded growth.
const MaxReplyBytes = 64 << 10

// ErrProtocol is the root of every typed protocol violation this package
// reports: oversized lines, oversized replies, and malformed reply framing
// all wrap it, so callers can classify hostile-server behaviour with a
// single errors.Is check.
var ErrProtocol = errors.New("ftp: protocol violation")

// ErrLineTooLong marks a control line exceeding MaxLineLen — the signature
// of a server spewing garbage without line framing.
var ErrLineTooLong = fmt.Errorf("%w: control line exceeds %d bytes", ErrProtocol, MaxLineLen)

// ErrReplyTooLong marks a reply exceeding MaxReplyBytes across all lines.
var ErrReplyTooLong = fmt.Errorf("%w: reply exceeds %d bytes", ErrProtocol, MaxReplyBytes)

// Conn wraps a control connection with buffered line-oriented I/O and the
// FTP reply state machine. It is used from both sides: servers read commands
// and send replies; clients send commands and read replies.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer

	// Timeout, when non-zero, bounds each single read or write.
	Timeout time.Duration
}

// NewConn wraps a network connection. The wrapped connection is used for
// both directions; callers retain responsibility for closing it. nc may be
// nil for a wrapper that is bound to each connection in turn with Reset.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 4096),
		w:  bufio.NewWriterSize(nc, 4096),
	}
}

// NetConn returns the underlying network connection.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Upgrade replaces the underlying connection (after a TLS handshake) while
// preserving the wrapper, its buffers and its timeout. Any bytes buffered
// from the old connection are discarded; AUTH TLS semantics guarantee the
// server sends nothing between its 234 reply and the handshake.
func (c *Conn) Upgrade(nc net.Conn) {
	c.nc = nc
	c.r.Reset(nc)
	c.w.Reset(nc)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Reset rebinds the wrapper to a new connection, reusing both buffers and
// clearing the timeout — the hook that lets a busy server pool Conn
// wrappers across sessions instead of allocating 8 KiB of bufio per accept.
func (c *Conn) Reset(nc net.Conn) {
	c.nc = nc
	c.r.Reset(nc)
	c.w.Reset(nc)
	c.Timeout = 0
}

func (c *Conn) armRead() {
	if c.Timeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.Timeout))
	}
}

func (c *Conn) armWrite() {
	if c.Timeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
}

// readLine reads one CRLF- (or bare-LF-) terminated line, enforcing
// MaxLineLen. Real-world servers are sloppy about line endings.
func (c *Conn) readLine() (string, error) {
	c.armRead()
	var b strings.Builder
	for {
		chunk, err := c.r.ReadSlice('\n')
		b.Write(chunk)
		if b.Len() > MaxLineLen {
			return "", ErrLineTooLong
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if b.Len() > 0 && err == io.EOF {
				return "", io.ErrUnexpectedEOF
			}
			return "", err
		}
		return strings.TrimRight(stripIAC(b.String()), "\r\n"), nil
	}
}

// stripIAC removes telnet IAC (0xFF) escape sequences. FTP's control
// channel is formally a telnet stream, and some clients (notably when
// aborting transfers) prefix commands with IAC IP / IAC DM; parsers that
// choke on them break against real traffic.
func stripIAC(line string) string {
	if strings.IndexByte(line, 0xFF) < 0 {
		return line
	}
	var b strings.Builder
	b.Grow(len(line))
	for i := 0; i < len(line); i++ {
		if line[i] != 0xFF {
			b.WriteByte(line[i])
			continue
		}
		// IAC IAC is an escaped literal 0xFF; other sequences are a
		// two-byte command (or three for WILL/WONT/DO/DONT).
		if i+1 < len(line) {
			switch line[i+1] {
			case 0xFF:
				b.WriteByte(0xFF)
				i++
			case 251, 252, 253, 254: // WILL WONT DO DONT <option>
				i += 2
			default:
				i++
			}
		}
	}
	return b.String()
}

// ReadCommand reads the next client command (server side).
func (c *Conn) ReadCommand() (Command, error) {
	line, err := c.readLine()
	if err != nil {
		return Command{}, err
	}
	return ParseCommand(line)
}

// SendCommand writes a command line (client side) and flushes.
func (c *Conn) SendCommand(name, arg string) error {
	c.armWrite()
	if arg != "" {
		fmt.Fprintf(c.w, "%s %s\r\n", name, arg)
	} else {
		fmt.Fprintf(c.w, "%s\r\n", name)
	}
	return c.w.Flush()
}

// SendReply writes a reply (server side) and flushes.
func (c *Conn) SendReply(r Reply) error {
	c.armWrite()
	if _, err := io.WriteString(c.w, r.String()); err != nil {
		return err
	}
	return c.w.Flush()
}

// SendRaw writes preformatted wire bytes (a Reply.Wire result) and flushes.
// It is the zero-allocation send path for replies rendered ahead of time.
func (c *Conn) SendRaw(b []byte) error {
	c.armWrite()
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

// SendReplyLine formats and sends a single-line reply directly into the
// connection's write buffer, avoiding the intermediate Reply allocation of
// SendReply. scratch, when non-nil, is used as the format buffer and the
// (possibly grown) buffer is returned for reuse.
func (c *Conn) SendReplyLine(scratch []byte, code int, format string, args ...any) ([]byte, error) {
	b := scratch[:0]
	b = append(b, byte('0'+code/100%10), byte('0'+code/10%10), byte('0'+code%10), ' ')
	if len(args) == 0 {
		b = append(b, format...)
	} else {
		b = fmt.Appendf(b, format, args...)
	}
	b = append(b, '\r', '\n')
	c.armWrite()
	if _, err := c.w.Write(b); err != nil {
		return b, err
	}
	return b, c.w.Flush()
}

// ReadReply reads a complete (possibly multi-line) server reply.
//
// The parser is deliberately lenient, mirroring the reverse-engineering
// posture the paper describes: it accepts continuation lines with or without
// a leading code, tolerates bare-LF endings, and treats any line starting
// with "ddd " (matching the opening code) as the terminator of a multi-line
// reply.
func (c *Conn) ReadReply() (Reply, error) {
	line, err := c.readLine()
	if err != nil {
		return Reply{}, err
	}
	code, rest, multi, err := parseReplyLine(line)
	if err != nil {
		return Reply{}, err
	}
	reply := Reply{Code: code, Lines: []string{rest}}
	if !multi {
		return reply, nil
	}
	terminator := fmt.Sprintf("%03d ", code)
	terminatorBare := fmt.Sprintf("%03d", code)
	total := len(line)
	for {
		line, err := c.readLine()
		if err != nil {
			return reply, fmt.Errorf("ftp: truncated multi-line reply: %w", err)
		}
		total += len(line)
		if total > MaxReplyBytes {
			return reply, ErrReplyTooLong
		}
		if strings.HasPrefix(line, terminator) {
			reply.Lines = append(reply.Lines, line[len(terminator):])
			return reply, nil
		}
		if line == terminatorBare {
			reply.Lines = append(reply.Lines, "")
			return reply, nil
		}
		// Continuation line; strip an optional "ddd-" prefix.
		if strings.HasPrefix(line, terminatorBare+"-") {
			line = line[len(terminatorBare)+1:]
		}
		reply.Lines = append(reply.Lines, strings.TrimPrefix(line, " "))
		if len(reply.Lines) > 4096 {
			return reply, fmt.Errorf("%w: multi-line reply exceeds 4096 lines", ErrProtocol)
		}
	}
}

// parseReplyLine splits a reply's first line into code, text, and whether it
// opens a multi-line reply.
func parseReplyLine(line string) (code int, text string, multi bool, err error) {
	if len(line) < 3 {
		return 0, "", false, fmt.Errorf("%w: short reply line %q", ErrProtocol, line)
	}
	code, err = strconv.Atoi(line[:3])
	if err != nil || code < 100 || code > 599 {
		return 0, "", false, fmt.Errorf("%w: bad reply code in %q", ErrProtocol, line)
	}
	switch {
	case len(line) == 3:
		return code, "", false, nil
	case line[3] == ' ':
		return code, line[4:], false, nil
	case line[3] == '-':
		return code, line[4:], true, nil
	default:
		return 0, "", false, fmt.Errorf("%w: malformed reply line %q", ErrProtocol, line)
	}
}

// Cmd sends a command and reads the reply — the client-side request/response
// helper used pervasively by the enumerator.
func (c *Conn) Cmd(name, arg string) (Reply, error) {
	if err := c.SendCommand(name, arg); err != nil {
		return Reply{}, err
	}
	return c.ReadReply()
}
