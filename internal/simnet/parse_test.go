package simnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refParseIP is the strings.Split + strconv.ParseUint(p, 10, 8) parser
// ParseIP replaced: the oracle for which inputs it accepts, the value, and
// the error text.
func refParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("simnet: bad IPv4 address %q", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("simnet: bad IPv4 address %q: %w", s, err)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

// checkParseIP compares ParseIP against the reference on one input.
func checkParseIP(t *testing.T, s string) {
	t.Helper()
	got, err := ParseIP(s)
	want, werr := refParseIP(s)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseIP(%q) error %v, reference %v", s, err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("ParseIP(%q) error %q, reference %q", s, err, werr)
		}
		return
	}
	if got != want {
		t.Fatalf("ParseIP(%q) = %v, reference %v", s, got, want)
	}
}

var parseIPSeeds = []string{
	"", ".", "...", "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1",
	"1.2.3", "1.2.3.4.5", "1..2.3", "1.2.3.", ".1.2.3", "a.b.c.d",
	"001.002.003.004", "0000000000000000000001.2.3.4", "99999999999999999999.1.1.1",
	"1.2.3.-4", "1.2.3.+4", "1.2.3.4 ", " 1.2.3.4", "1_0.2.3.4", "0x1.2.3.4",
	"1.2.3.2550", "1.2.3.25x", "1.2.3.999x", "１.2.3.4", "1.2.3.4\x00",
}

// TestParseIPMatchesReference pins the allocation-free parser to the
// reference on hand-picked edge cases.
func TestParseIPMatchesReference(t *testing.T) {
	for _, s := range parseIPSeeds {
		checkParseIP(t, s)
	}
	if n := testing.AllocsPerRun(100, func() { ParseIP("203.0.113.77") }); n != 0 {
		t.Errorf("ParseIP: %v allocs, want 0", n)
	}
}

func FuzzParseIP(f *testing.F) {
	for _, s := range parseIPSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParseIP(t, s) })
}

// TestStringMatchesFmt renders 2^16 sampled addresses and ports with
// String and with the fmt.Sprintf form it replaced.
func TestStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		v := rng.Uint32()
		switch i {
		case 0:
			v = 0
		case 1:
			v = ^uint32(0)
		}
		ip := IP(v)
		want := fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
		if got := ip.String(); got != want {
			t.Fatalf("IP(%#x).String() = %q, want %q", v, got, want)
		}
		a := Addr{IP: ip, Port: uint16(rng.Uint32())}
		if i == 1 {
			a.Port = 65535
		}
		if got, want := a.String(), fmt.Sprintf("%s:%d", want, a.Port); got != want {
			t.Fatalf("Addr.String() = %q, want %q", got, want)
		}
	}
}
