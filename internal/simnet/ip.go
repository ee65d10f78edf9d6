// Package simnet provides an in-memory simulated IPv4 Internet.
//
// The simulation substitutes for the public IPv4 address space the paper
// scans: hosts are materialized lazily through a HostProvider, connections
// are real net.Conn implementations (buffered full-duplex pipes with
// deadline support), and the scanner's SYN-probe fast path avoids paying
// for a connection when only liveness is being tested.
//
// Nothing above this package knows it is not talking to a real network; the
// same enumerator binary drives real TCP sockets in cmd/ftpenum.
package simnet

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. Using a fixed-size integer keeps
// per-host bookkeeping compact enough to model millions of addresses.
type IP uint32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	var buf [len("255.255.255.255")]byte
	return string(ip.appendTo(buf[:0]))
}

// appendTo appends the dotted-quad form to dst.
func (ip IP) appendTo(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(byte(ip>>24)), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(byte(ip>>16)), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(byte(ip>>8)), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(byte(ip)), 10)
}

// Octets returns the address as four bytes, most significant first.
func (ip IP) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// IPFromOctets assembles an address from four octets.
func IPFromOctets(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses a dotted-quad IPv4 address: exactly four '.'-separated
// fields, each one or more decimal digits with a value of at most 255
// (leading zeros allowed), as strconv.ParseUint(field, 10, 8) accepts them.
// It allocates only on error.
func ParseIP(s string) (IP, error) {
	if strings.Count(s, ".") != 3 {
		return 0, fmt.Errorf("simnet: bad IPv4 address %q", s)
	}
	var ip uint32
	for start := 0; start <= len(s); {
		end := start
		n := uint32(0)
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			if n <= 255 {
				n = n*10 + uint32(s[end]-'0')
			}
			end++
		}
		if end == start || n > 255 || (end < len(s) && s[end] != '.') {
			field, _, _ := strings.Cut(s[start:], ".")
			_, err := strconv.ParseUint(field, 10, 8)
			return 0, fmt.Errorf("simnet: bad IPv4 address %q: %w", s, err)
		}
		ip = ip<<8 | n
		start = end + 1
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP for compile-time-constant addresses in tests and
// examples; it panics on malformed input.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Private reports whether the address falls in RFC 1918 space. Devices
// behind NATs leak such addresses in PASV replies, which is one of the
// paper's NAT-detection signals.
func (ip IP) Private() bool {
	switch {
	case ip>>24 == 10: // 10.0.0.0/8
		return true
	case ip>>20 == 0xac1: // 172.16.0.0/12
		return true
	case ip>>16 == 0xc0a8: // 192.168.0.0/16
		return true
	}
	return false
}

// Prefix is a CIDR block over the simulated space.
type Prefix struct {
	Base IP
	Bits int // prefix length, 0..32
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	if p.Bits <= 0 {
		return true
	}
	if p.Bits >= 32 {
		return ip == p.Base
	}
	mask := ^IP(0) << (32 - p.Bits)
	return ip&mask == p.Base&mask
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	if p.Bits <= 0 {
		return 1 << 32
	}
	if p.Bits >= 32 {
		return 1
	}
	return 1 << (32 - p.Bits)
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Base, p.Bits)
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("simnet: bad prefix %q: missing /", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("simnet: bad prefix length in %q", s)
	}
	return Prefix{Base: ip, Bits: bits}, nil
}

// Addr is a TCP endpoint in the simulated network; it implements net.Addr.
type Addr struct {
	IP   IP
	Port uint16
}

// Network returns the simulated network name.
func (Addr) Network() string { return "sim-tcp" }

// String renders "ip:port".
func (a Addr) String() string {
	var buf [len("255.255.255.255:65535")]byte
	dst := append(a.IP.appendTo(buf[:0]), ':')
	return string(strconv.AppendUint(dst, uint64(a.Port), 10))
}

// ParseAddr parses "ip:port" into an Addr.
func ParseAddr(s string) (Addr, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return Addr{}, fmt.Errorf("simnet: bad address %q: missing port", s)
	}
	ip, err := ParseIP(s[:colon])
	if err != nil {
		return Addr{}, err
	}
	port, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return Addr{}, fmt.Errorf("simnet: bad port in %q: %w", s, err)
	}
	return Addr{IP: ip, Port: uint16(port)}, nil
}
