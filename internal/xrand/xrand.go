// Package xrand provides a small, fully deterministic pseudo-random
// number generator used throughout cookiewalk.
//
// The generator is based on SplitMix64 (Steele, Lea, Flood 2014), which
// has a tiny state, passes BigCrush when used as a 64-bit generator, and
// — unlike math/rand — is guaranteed to produce identical sequences on
// every platform and Go release. Determinism is a hard requirement: the
// synthetic web registry, page contents, cookie jitter and toplists must
// be byte-identical across runs so that experiments are reproducible.
//
// xrand also exposes a stable string hash (Hash64, an FNV-1a variant)
// used to derive independent sub-seeds from (domain, vantage, repetition)
// tuples without any shared mutable state, which keeps concurrent crawls
// race-free by construction.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// It is NOT safe for concurrent use; derive one per goroutine with Fork.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent generator from r and a label. Two forks
// with different labels produce uncorrelated streams; forking does not
// advance r.
func (r *Rand) Fork(label string) *Rand {
	return New(mix(r.state ^ Hash64(label)))
}

// Uint64 returns the next value in the SplitMix64 sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster,
	// but modulo bias is negligible for n << 2^64 and simpler to audit.
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	// Avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normally distributed value with the given
// location mu and scale sigma of the underlying normal distribution.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// ShuffleStrings shuffles s in place (Fisher-Yates).
func (r *Rand) ShuffleStrings(s []string) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Pick returns a uniformly chosen element of s. It panics on empty s.
func (r *Rand) Pick(s []string) string {
	return s[r.Intn(len(s))]
}

// WeightedIndex returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero.
// It panics if the total weight is zero.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: WeightedIndex with zero total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Hash64 returns a stable 64-bit FNV-1a hash of s. The function is
// platform-independent and never changes between releases; persisted
// artefacts may rely on it.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Mix64 folds v into h with full 64-bit avalanche (the SplitMix64
// finalizer). It is the building block for incremental fingerprints:
// chains of Mix64 calls are order-sensitive and stable across
// platforms and releases, like Hash64.
func Mix64(h, v uint64) uint64 {
	return mix(h ^ v)
}

// SubSeed derives a stable seed from a base seed and any number of
// string labels. It is the canonical way to obtain per-entity
// generators: SubSeed(seed, domain, "cookies", "rep3").
func SubSeed(seed uint64, labels ...string) uint64 {
	h := mix(seed)
	for _, l := range labels {
		h = mix(h ^ Hash64(l))
	}
	return h
}

// JitterDuration maps (seed, call, attempt) to a delay in [base/2, base]
// — the decorrelated-jitter discipline shared by every retry loop in
// the tree (the fleet client's backoff and the browser's visit
// retries). Full determinism for tests, decorrelation across workers
// and calls for a fleet: peers that fail at the same instant spread
// their retries instead of returning as a synchronized thundering herd.
func JitterDuration[D ~int64](seed, call uint64, attempt int, base D) D {
	half := base / 2
	h := Mix64(Mix64(seed, call), uint64(attempt))
	return half + D(h%uint64(half+1))
}

// PerMille maps a roll in [0, 1000) to one of several per-mille rates
// by walking their cumulative thresholds in order: it returns the index
// of the first rate whose threshold exceeds roll, or -1 when roll lands
// past them all. A rate <= 0 never fires and takes no share. The fault
// injectors use it to pick at most one fault per request from a roll.
func PerMille(roll uint64, rates ...int) int {
	cum := uint64(0)
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		cum += uint64(r)
		if roll < cum {
			return i
		}
	}
	return -1
}
