package rng

import "math/bits"

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; derive one Rand per goroutine with Split.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand seeds into full generator state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Rand seeded from seed. Any seed value, including zero, is
// valid: the state is expanded with splitmix64 and never all-zero.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	return r
}

// Split derives a new independent Rand from r and the given key. Two splits
// of the same Rand with different keys produce independent streams; the
// parent stream is not advanced, so Split is safe to call at setup time in
// any order.
func (r *Rand) Split(key uint64) *Rand {
	child := &Rand{}
	r.SplitInto(key, child)
	return child
}

// SplitInto is Split writing the derived state into dst instead of
// allocating, so callers splitting once per node can lay the children out in
// one contiguous slab. The stream is identical to Split's.
func (r *Rand) SplitInto(key uint64, dst *Rand) {
	// Mix the key into the parent state through splitmix64 so that nearby
	// keys (0, 1, 2, ...) yield unrelated streams.
	st := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ key*0x9e3779b97f4a7c15
	for i := range dst.s {
		dst.s[i] = splitmix64(&st)
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers control n and a non-positive value is a programming
// error.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// IntRange returns a uniform integer in [lo, hi]. It panics if lo > hi.
func (r *Rand) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: IntRange called with lo > hi")
	}
	return lo + r.Intn(hi-lo+1)
}

// uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method.
func (r *Rand) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p. Values of p <= 0 always return
// false and values >= 1 always return true, without drawing; NaN draws and
// returns false.
//
// The draw is Float64() < p with both sides scaled by 2^53: the 53-bit
// integer x stands for x/2^53, and p·2^53 is exact for every p in (0, 1),
// subnormals included, so the comparison and the stream consumed are
// identical to Float64() < p without the division.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(int64(r.Uint64()>>11)) < p*(1<<53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs uniformly at random in place.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleK returns k distinct uniform values from [0, n) in increasing order.
// It panics if k > n or k < 0.
func (r *Rand) SampleK(n, k int) []int {
	return r.SampleKInto(n, k, nil)
}

// SampleKInto is SampleK reusing dst's backing storage (growing it when
// needed), so a caller drawing a sample every round allocates only once.
// The draws, and therefore the generator stream consumed, are identical to
// SampleK's: duplicate detection by linear scan over the chosen values
// answers exactly the membership queries the historical map answered.
func (r *Rand) SampleKInto(n, k int, dst []int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK called with k out of range")
	}
	// Floyd's algorithm: O(k²) worst case with the scan, but k is small in
	// all our uses and the constant beats a map rebuilt per call.
	out := dst[:0]
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		dup := false
		for _, c := range out {
			if c == v {
				dup = true
				break
			}
		}
		if dup {
			v = j
		}
		out = append(out, v)
	}
	// Insertion sort; k is small in all our uses.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
