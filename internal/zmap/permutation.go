// Package zmap implements the host-discovery stage of the census: a
// ZMap-style single-probe scanner over the simulated network. Like the real
// tool (Durumeric et al., USENIX Security 2013) it iterates the target space
// in a pseudorandom order derived from a cyclic group, so probes to adjacent
// addresses are spread over time and the scan can be resumed from nothing
// more than a position in the cycle.
package zmap

import (
	"fmt"
	"math/bits"
)

// Permutation enumerates [0, n) in pseudorandom order by iterating the
// multiplicative group of integers modulo a prime p > n, skipping values
// outside the range. Each element appears exactly once per cycle.
type Permutation struct {
	n     uint64
	prime uint64
	gen   uint64
	first uint64
	cur   uint64
	// remaining counts the group elements left in the cycle's p-1.
	remaining uint64
}

// smallPrimes seed the generator search.
var generatorCandidates = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// NewPermutation builds a permutation of [0, n) whose order is derived from
// seed. n must be positive.
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 {
		return nil, fmt.Errorf("zmap: empty permutation")
	}
	if n >= 1<<62 {
		return nil, fmt.Errorf("zmap: range %d too large", n)
	}
	p := nextPrime(n + 1)
	gen := findGenerator(p, seed)
	// The starting point is any group element derived from the seed.
	first := seed%(p-1) + 1
	return &Permutation{
		n:         n,
		prime:     p,
		gen:       gen,
		first:     first,
		cur:       first,
		remaining: p - 1,
	}, nil
}

// Next returns the next element of the permutation; ok is false once the
// cycle has been emitted.
func (pm *Permutation) Next() (uint64, bool) {
	for pm.remaining > 0 {
		// Group elements are 1..p-1; map to 0..p-2 and filter to < n.
		val := pm.cur - 1
		pm.cur = mulmod(pm.cur, pm.gen, pm.prime)
		pm.remaining--
		if val < pm.n {
			return val, true
		}
	}
	return 0, false
}

// Reset rewinds the permutation to its first element.
func (pm *Permutation) Reset() {
	pm.cur = pm.first
	pm.remaining = pm.Span()
}

// Len returns the number of elements the permutation emits.
func (pm *Permutation) Len() uint64 { return pm.n }

// Span returns the number of group steps the walk consumes in total —
// the cursor value of a finished walk.
func (pm *Permutation) Span() uint64 { return pm.prime - 1 }

// Cursor returns the number of group steps consumed so far. Because the
// walk is a cyclic-group iteration, this single index is the complete scan
// position: Seek(Cursor()) on a fresh permutation built from the same
// (n, seed) reproduces the walk's continuation exactly. This is what makes
// a census checkpoint carry one integer instead of a probe bitmap.
func (pm *Permutation) Cursor() uint64 { return pm.Span() - pm.remaining }

// Seek positions the walk exactly steps group steps from its start, as if
// Next had been called until Cursor() == steps. The jump is O(log steps):
// cur = first·gen^steps mod p.
func (pm *Permutation) Seek(steps uint64) error {
	span := pm.Span()
	if steps > span {
		return fmt.Errorf("zmap: seek %d beyond walk span %d", steps, span)
	}
	pm.cur = mulmod(pm.first, powmod(pm.gen, steps, pm.prime), pm.prime)
	pm.remaining = span - steps
	return nil
}

// mulmod computes (a*b) mod m without overflow via 128-bit intermediates.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// bits.Div64 requires hi < m; hi%m guarantees it and preserves the
	// remainder.
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// nextPrime returns the smallest prime >= v.
func nextPrime(v uint64) uint64 {
	if v <= 2 {
		return 2
	}
	if v%2 == 0 {
		v++
	}
	for !isPrime(v) {
		v += 2
	}
	return v
}

// isPrime is deterministic Miller-Rabin for 64-bit inputs.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	// These witnesses are sufficient for all n < 2^64.
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powmod(a%n, d, n)
		if x == 1 || x == n-1 || x == 0 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

func powmod(base, exp, m uint64) uint64 {
	result := uint64(1)
	base %= m
	for exp > 0 {
		if exp&1 == 1 {
			result = mulmod(result, base, m)
		}
		base = mulmod(base, base, m)
		exp >>= 1
	}
	return result
}

// findGenerator locates a generator of the multiplicative group mod p by
// testing candidates against the factorization of p-1.
func findGenerator(p uint64, seed uint64) uint64 {
	factors := primeFactors(p - 1)
	offset := int(seed % uint64(len(generatorCandidates)))
	for i := 0; i < 64; i++ {
		var g uint64
		if i < len(generatorCandidates) {
			g = generatorCandidates[(offset+i)%len(generatorCandidates)]
		} else {
			g = uint64(i) + 2
		}
		if g >= p {
			continue
		}
		if isGenerator(g, p, factors) {
			return g
		}
	}
	// p has a generator by construction; the fallback scan always finds
	// one for the small primes used here.
	for g := uint64(2); g < p; g++ {
		if isGenerator(g, p, factors) {
			return g
		}
	}
	return 1
}

func isGenerator(g, p uint64, factors []uint64) bool {
	for _, f := range factors {
		if powmod(g, (p-1)/f, p) == 1 {
			return false
		}
	}
	return true
}

// primeFactors returns the distinct prime factors of n.
func primeFactors(n uint64) []uint64 {
	var factors []uint64
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if n%p == 0 {
			factors = append(factors, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	for f := uint64(17); f*f <= n; f += 2 {
		if n%f == 0 {
			factors = append(factors, f)
			for n%f == 0 {
				n /= f
			}
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	return factors
}
