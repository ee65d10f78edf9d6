package robots

import (
	"strings"
	"testing"
	"time"
)

// refMatch is the reference for wildcardMatch: a dynamic program over
// pattern and path positions, quadratic by construction. m[i][j] reports
// whether pattern[i:] matches a prefix of path[j:] (all of it, anchored).
func refMatch(pattern, path string, anchored bool) bool {
	m := make([][]bool, len(pattern)+1)
	for i := range m {
		m[i] = make([]bool, len(path)+1)
	}
	for j := range m[len(pattern)] {
		m[len(pattern)][j] = !anchored || j == len(path)
	}
	for i := len(pattern) - 1; i >= 0; i-- {
		for j := len(path); j >= 0; j-- {
			switch {
			case pattern[i] == '*':
				m[i][j] = m[i+1][j] || (j < len(path) && m[i][j+1])
			case j < len(path) && pattern[i] == path[j]:
				m[i][j] = m[i+1][j+1]
			}
		}
	}
	return m[0][0]
}

// FuzzRobots feeds robots.txt bodies, as a hostile server may serve them,
// through Parse and the matchers with a fuzzed agent and path: nothing
// panics, and every rule's pattern matches the path exactly when the
// reference matcher says so.
func FuzzRobots(f *testing.F) {
	for _, seed := range [][3]string{
		{"User-agent: *\nDisallow: /\n", crawler, "/pub"},
		{"User-agent: *\nDisallow: /private\nDisallow: /tmp\n", crawler, "/tmp/x"},
		{"User-agent: ftp-enumerator\nAllow: /pub$\nDisallow: /*.bak$\n", crawler, "/pub/a.bak"},
		{"Disallow: /a*b$\n", crawler, "/abxb"},
		{"User-agent: other\r\nUser-agent: *\r\nAllow: /*\r\n# x\r\nDisallow: /\r\n", "Other/1.0", ""},
		{"Disallow: /" + strings.Repeat("a*", 64) + "b$\n", crawler, "/" + strings.Repeat("a", 512)},
		{"user-agent:*\ndisallow:**$\nallow:$\n", "", "/"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, content, agent, path string) {
		r := Parse(content)
		allowed := r.Allowed(agent, path)
		if r.ExcludesAll(agent) && path == "/" && allowed {
			t.Errorf("agent %q is excluded from / but allowed /", agent)
		}
		if path == "" {
			path = "/"
		}
		for _, g := range r.groups {
			for _, rule := range g.rules {
				if len(rule.Pattern)*len(path) > 1<<20 {
					continue
				}
				pattern, anchored := strings.CutSuffix(rule.Pattern, "$")
				if got, want := patternMatches(rule.Pattern, path), refMatch(pattern, path, anchored); got != want {
					t.Errorf("pattern %q against %q: match %v, reference %v", rule.Pattern, path, got, want)
				}
			}
		}
	})
}

// TestWildcardMatchStarHeavyIsPolynomial: a pattern of many `*` segments
// that almost match a long path is the input that makes a backtracking
// matcher exponential; the segment walk does it in polynomial time.
func TestWildcardMatchStarHeavyIsPolynomial(t *testing.T) {
	pattern := "/" + strings.Repeat("a*", 1000) + "b"
	path := "/" + strings.Repeat("a", 20000)
	done := make(chan bool, 2)
	go func() {
		done <- wildcardMatch(pattern, path, false)
		done <- wildcardMatch(pattern, path, true)
	}()
	for range 2 {
		select {
		case m := <-done:
			if m {
				t.Error("pattern ending in b matched a path of a's")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a *-heavy pattern took over 10 s against a 20 kB path")
		}
	}
}
