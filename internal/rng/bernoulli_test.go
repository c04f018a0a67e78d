package rng

import (
	"math"
	"testing"
)

// bernoulliFloat64 is Bernoulli as it was written before the comparison
// moved to integer scale: the oracle the scaled draw must match on every
// p and every generator state.
func bernoulliFloat64(r *Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// invOdd returns the inverse of odd x modulo 2^64 (Newton's iteration;
// each step doubles the number of correct low bits).
func invOdd(x uint64) uint64 {
	inv := x // correct to 3 bits: x·x ≡ 1 mod 8 for odd x
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return inv
}

var inv5, inv9 = invOdd(5), invOdd(9)

// withNextDraw returns a Rand whose next Uint64()>>11 is x (x < 2^53). The
// xoshiro256** output rotl(s1·5, 7)·9 depends on s1 alone and is a
// bijection of it, so inverting it pins the draw; the other state words
// come from seed.
func withNextDraw(x, seed uint64) *Rand {
	r := New(seed)
	out := x<<11 | seed&0x7ff
	r.s[1] = inv5 * rotr(inv9*out, 7)
	return r
}

func rotr(x uint64, k uint) uint64 { return x>>k | x<<(64-k) }

// checkBernoulli compares Bernoulli(p) on r against the oracle on a twin of
// r: same result and same post-call state.
func checkBernoulli(t *testing.T, r *Rand, p float64) {
	t.Helper()
	twin := *r
	got, want := r.Bernoulli(p), bernoulliFloat64(&twin, p)
	if got != want {
		t.Fatalf("Bernoulli(%v) [bits %#x] = %v, Float64 oracle %v", p, math.Float64bits(p), got, want)
	}
	if r.s != twin.s {
		t.Fatalf("Bernoulli(%v) [bits %#x] left state %v, oracle %v", p, math.Float64bits(p), r.s, twin.s)
	}
}

// drawsAround lists the 53-bit draws on either side of p·2^53, clamped to
// [0, 2^53): where the scaled comparison and the division could disagree
// if either scaling were inexact.
func drawsAround(p float64) []uint64 {
	const top = 1<<53 - 1
	draws := []uint64{0, 1, top - 1, top}
	if p > 0 && p < 1 {
		c := uint64(p * (1 << 53))
		for d := uint64(0); d <= 2; d++ {
			if c >= d {
				draws = append(draws, c-d)
			}
			if c+d <= top {
				draws = append(draws, c+d)
			}
		}
	}
	return draws
}

// TestBernoulliMatchesFloat64 pins the integer-scale draw to the Float64
// oracle on the edge values of p, on subnormal and near-1 probabilities, on
// the float neighbours of dyadic probabilities (where p·2^53 sits next to
// an integer draw), and on both random streams and crafted draws at the
// comparison boundary.
func TestBernoulliMatchesFloat64(t *testing.T) {
	ps := []float64{
		0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(),
		-0.5, 1.5, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1074 * 3,
		0x1p-53, 0x1p-54, 1 - 0x1p-53, 1 - 0x1p-52, 0.02, 0.1, 1.0 / 3,
	}
	for _, m := range []int{1, 2, 3, 7, 20, 52, 53} {
		for _, num := range []float64{1, 3, 5, 7, 11} {
			d := math.Ldexp(num, -m)
			if d >= 1 {
				continue
			}
			ps = append(ps, d, math.Nextafter(d, 0), math.Nextafter(d, 1), math.Nextafter(math.Nextafter(d, 1), 1))
		}
	}
	for _, x := range []uint64{0, 1, 12345, 1<<53 - 1} {
		if got := withNextDraw(x, 3).Uint64() >> 11; got != x {
			t.Fatalf("withNextDraw(%d) drew %d", x, got)
		}
	}
	for _, p := range ps {
		r := New(math.Float64bits(p))
		for i := 0; i < 2000; i++ {
			checkBernoulli(t, r, p)
		}
		for _, x := range drawsAround(p) {
			checkBernoulli(t, withNextDraw(x, 7), p)
		}
	}
}

// FuzzBernoulli checks the integer-scale draw against the Float64 oracle
// for arbitrary p (every bit pattern, NaNs and infinities included): a
// short random stream from seed, then the crafted draws next to p·2^53.
// The seed corpus lives in testdata/fuzz/FuzzBernoulli.
func FuzzBernoulli(f *testing.F) {
	f.Fuzz(func(t *testing.T, pBits, seed uint64) {
		p := math.Float64frombits(pBits)
		r := New(seed)
		for i := 0; i < 16; i++ {
			checkBernoulli(t, r, p)
		}
		for _, x := range drawsAround(p) {
			checkBernoulli(t, withNextDraw(x, seed), p)
		}
	})
}
