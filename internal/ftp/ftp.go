// Package ftp implements wire-level primitives for the File Transfer
// Protocol (RFC 959) and the extensions the measurement toolchain relies on:
// passive mode (RFC 1579), feature negotiation (RFC 2389), extended passive
// mode (RFC 2428), and the AUTH TLS upgrade (RFC 4217).
//
// The package is deliberately agnostic about transport: everything operates
// on net.Conn, so the same code drives real TCP sockets and simulated
// connections from the simnet package.
package ftp

import (
	"errors"
	"fmt"
	"strings"
)

// Command is a single client request on the control channel.
type Command struct {
	// Name is the command verb, upper-cased ("USER", "PASV", ...).
	Name string
	// Arg is the raw argument text following the verb, if any.
	Arg string
}

// String renders the command as it appears on the wire, without the CRLF.
func (c Command) String() string {
	if c.Arg == "" {
		return c.Name
	}
	return c.Name + " " + c.Arg
}

// ErrBadCommand marks a control line that arrived whole but parses as no
// command: an empty line, or a verb with a byte other than a letter or '-'.
// The session can carry on past it, unlike a transport error.
var ErrBadCommand = errors.New("ftp: unparseable command line")

// ParseCommand parses one control-channel line (without trailing CRLF) into
// a Command. FTP verbs are case-insensitive; the verb is canonicalized to
// upper case while the argument is preserved byte-for-byte (paths are case
// sensitive on most servers).
func ParseCommand(line string) (Command, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return Command{}, fmt.Errorf("%w: empty", ErrBadCommand)
	}
	verb := line
	arg := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], strings.TrimLeft(line[i+1:], " ")
	}
	if verb == "" {
		return Command{}, fmt.Errorf("%w: %q has no verb", ErrBadCommand, line)
	}
	for _, r := range verb {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && r != '-' {
			return Command{}, fmt.Errorf("%w: malformed verb %q", ErrBadCommand, verb)
		}
	}
	return Command{Name: strings.ToUpper(verb), Arg: arg}, nil
}

// Reply is a server response on the control channel. A reply carries a
// three-digit code and one or more lines of text. Multi-line replies use the
// RFC 959 "123-text ... 123 text" framing.
type Reply struct {
	Code  int
	Lines []string
}

// NewReply builds a single- or multi-line reply from code and text lines.
func NewReply(code int, lines ...string) Reply {
	if len(lines) == 0 {
		lines = []string{""}
	}
	return Reply{Code: code, Lines: lines}
}

// Replyf builds a one-line reply with fmt formatting.
func Replyf(code int, format string, args ...any) Reply {
	return Reply{Code: code, Lines: []string{fmt.Sprintf(format, args...)}}
}

// Text returns the reply's text joined with newlines.
func (r Reply) Text() string { return strings.Join(r.Lines, "\n") }

// Wire renders the reply once into its wire-format bytes. Servers preformat
// their hot constant replies ("200 NOOP command successful", "226 Transfer
// complete", banners) at construction time and send the bytes directly,
// instead of re-rendering the same string on every command.
func (r Reply) Wire() []byte { return []byte(r.String()) }

// String renders the reply in wire format, including CRLF terminators.
func (r Reply) String() string {
	var b strings.Builder
	lines := r.Lines
	if len(lines) == 0 {
		lines = []string{""}
	}
	if len(lines) == 1 {
		fmt.Fprintf(&b, "%03d %s\r\n", r.Code, lines[0])
		return b.String()
	}
	fmt.Fprintf(&b, "%03d-%s\r\n", r.Code, lines[0])
	for _, l := range lines[1 : len(lines)-1] {
		// Continuation lines may optionally carry the code; plain text
		// is the most widely compatible form.
		fmt.Fprintf(&b, " %s\r\n", l)
	}
	fmt.Fprintf(&b, "%03d %s\r\n", r.Code, lines[len(lines)-1])
	return b.String()
}

// Reply-code classification per RFC 959 §4.2.
const (
	ClassPositivePreliminary  = 1
	ClassPositiveCompletion   = 2
	ClassPositiveIntermediate = 3
	ClassTransientNegative    = 4
	ClassPermanentNegative    = 5
)

// Class returns the first digit of the reply code.
func (r Reply) Class() int { return r.Code / 100 }

// Positive reports whether the reply indicates success (2xx).
func (r Reply) Positive() bool { return r.Class() == ClassPositiveCompletion }

// Intermediate reports whether the reply asks for more input (3xx).
func (r Reply) Intermediate() bool { return r.Class() == ClassPositiveIntermediate }

// Preliminary reports whether the reply is a transfer-start mark (1xx).
func (r Reply) Preliminary() bool { return r.Class() == ClassPositivePreliminary }

// Negative reports whether the reply indicates failure (4xx or 5xx).
func (r Reply) Negative() bool { return r.Class() >= ClassTransientNegative }

// Common reply codes used throughout the toolchain.
const (
	CodeDataOpen          = 150 // file status okay; opening data connection
	CodeOK                = 200
	CodeHelp              = 214
	CodeSystem            = 215
	CodeReady             = 220 // service ready
	CodeClosing           = 221
	CodeTransferOK        = 226
	CodePassive           = 227
	CodeExtendedPassive   = 229
	CodeLoggedIn          = 230
	CodeAuthOK            = 234 // AUTH security exchange complete
	CodeFileOK            = 250
	CodePathCreated       = 257
	CodeNeedPassword      = 331
	CodeNeedAccount       = 332
	CodePendingInfo       = 350
	CodeServiceNotAvail   = 421
	CodeCantOpenData      = 425
	CodeTransferAborted   = 426
	CodeFileBusy          = 450
	CodeLocalError        = 451
	CodeCmdUnrecognized   = 500
	CodeSyntaxError       = 501
	CodeNotImplemented    = 502
	CodeBadSequence       = 503
	CodeNotLoggedIn       = 530
	CodeFileUnavailable   = 550
	CodePageTypeUnknown   = 551
	CodeExceededStorage   = 552
	CodeBadFileName       = 553
	FeatureListCode       = 211 // FEAT response code
	CodeCommandNotNeeded  = 202
	CodeTLSNotAvailable   = 534
	CodeBadProtSetting    = 536
	CodeEnteringEPSVError = 522
)
