// Package robots implements a fetch-side parser and matcher for the Robots
// Exclusion Standard, following Google's specification as the paper's
// enumerator does: grouping by User-agent, Allow/Disallow rules with `*`
// wildcards and `$` end anchors, and longest-match precedence with Allow
// winning ties.
package robots

import (
	"strings"
)

// Rule is a single Allow or Disallow directive.
type Rule struct {
	Allow   bool
	Pattern string
}

// group is the rule set for one set of user agents.
type group struct {
	agents []string // lower-cased User-agent values, "*" for wildcard
	rules  []Rule
}

// Rules is a parsed robots.txt file.
type Rules struct {
	groups []group
}

// Parse parses robots.txt content. Parsing is forgiving: unknown directives,
// comments, and malformed lines are ignored, as crawlers must tolerate the
// wild variety of robots files.
func Parse(content string) *Rules {
	r := &Rules{}
	var cur *group
	// Consecutive User-agent lines accumulate onto one group until a rule
	// appears; a User-agent after rules starts a new group.
	sawRule := false
	for _, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		field := strings.ToLower(strings.TrimSpace(line[:colon]))
		value := strings.TrimSpace(line[colon+1:])
		switch field {
		case "user-agent":
			if cur == nil || sawRule {
				r.groups = append(r.groups, group{})
				cur = &r.groups[len(r.groups)-1]
				sawRule = false
			}
			cur.agents = append(cur.agents, strings.ToLower(value))
		case "allow", "disallow":
			if cur == nil {
				// Rules before any User-agent line apply to everyone.
				r.groups = append(r.groups, group{agents: []string{"*"}})
				cur = &r.groups[len(r.groups)-1]
			}
			sawRule = true
			// An empty Disallow means "allow everything" — representable
			// as no rule at all.
			if value == "" {
				continue
			}
			cur.rules = append(cur.rules, Rule{Allow: field == "allow", Pattern: value})
		default:
			// Crawl-delay, Sitemap, etc.: ignored.
		}
	}
	return r
}

// groupFor selects the most specific matching group for a user agent:
// longest agent-token substring match wins; the "*" group is the fallback.
func (r *Rules) groupFor(userAgent string) *group {
	ua := strings.ToLower(userAgent)
	var best *group
	bestLen := -1
	for i := range r.groups {
		g := &r.groups[i]
		for _, a := range g.agents {
			switch {
			case a == "*":
				if bestLen < 0 {
					best = g
					bestLen = 0
				}
			case strings.Contains(ua, a) && len(a) > bestLen:
				best = g
				bestLen = len(a)
			}
		}
	}
	return best
}

// Allowed reports whether the user agent may fetch path. With no matching
// group or no matching rule, access is allowed.
func (r *Rules) Allowed(userAgent, path string) bool {
	g := r.groupFor(userAgent)
	if g == nil {
		return true
	}
	if path == "" {
		path = "/"
	}
	var (
		bestLen   = -1
		bestAllow = true
	)
	for _, rule := range g.rules {
		if !patternMatches(rule.Pattern, path) {
			continue
		}
		specificity := len(rule.Pattern)
		if specificity > bestLen || (specificity == bestLen && rule.Allow && !bestAllow) {
			bestLen = specificity
			bestAllow = rule.Allow
		}
	}
	if bestLen < 0 {
		return true
	}
	return bestAllow
}

// ExcludesAll reports whether the user agent is barred from the entire
// tree — the "Disallow: /" case the paper found on 5.9K servers.
func (r *Rules) ExcludesAll(userAgent string) bool {
	return !r.Allowed(userAgent, "/")
}

// patternMatches implements Google's robots pattern semantics: patterns are
// path prefixes, `*` matches any byte run, and a trailing `$` anchors the
// match at the path's end.
func patternMatches(pattern, path string) bool {
	anchored := strings.HasSuffix(pattern, "$")
	if anchored {
		pattern = pattern[:len(pattern)-1]
	}
	return wildcardMatch(pattern, path, anchored)
}

// wildcardMatch matches pattern (with `*` wildcards) against a prefix of
// path, or the whole path when anchored. The segments between stars match
// leftmost, each after the one before: the earliest match leaves the most
// path for the rest, so one pass decides the match in polynomial time.
// Anchored, the last segment must end the path instead.
func wildcardMatch(pattern, path string, anchored bool) bool {
	segs := strings.Split(pattern, "*")
	// The first segment must match at the very start.
	if !strings.HasPrefix(path, segs[0]) {
		return false
	}
	if len(segs) == 1 {
		return !anchored || len(path) == len(segs[0])
	}
	pos := len(segs[0])
	for _, seg := range segs[1 : len(segs)-1] {
		idx := strings.Index(path[pos:], seg)
		if idx < 0 {
			return false
		}
		pos += idx + len(seg)
	}
	last := segs[len(segs)-1]
	if anchored {
		return len(path)-len(last) >= pos && strings.HasSuffix(path, last)
	}
	return strings.Contains(path[pos:], last)
}
