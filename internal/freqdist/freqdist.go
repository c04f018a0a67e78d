package freqdist

import (
	"fmt"
	"math/bits"

	"wsync/internal/rng"
)

// Dist is a probability distribution over frequencies [1..Max()].
type Dist interface {
	// Sample draws a frequency.
	Sample(r *rng.Rand) int
	// Prob returns the probability of drawing f; zero outside the support.
	Prob(f int) float64
	// Max returns the largest frequency with nonzero probability.
	Max() int
}

// Uniform is the uniform distribution over [Lo..Hi].
type Uniform struct {
	Lo, Hi int
}

var _ Dist = Uniform{}

// NewUniform returns the uniform distribution over [lo..hi]. It panics if
// the range is empty or starts below 1.
func NewUniform(lo, hi int) Uniform {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("freqdist: invalid uniform range [%d..%d]", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample draws a frequency uniformly from [Lo..Hi].
func (u Uniform) Sample(r *rng.Rand) int { return r.IntRange(u.Lo, u.Hi) }

// Prob returns 1/(Hi-Lo+1) inside the range and 0 outside.
func (u Uniform) Prob(f int) float64 {
	if f < u.Lo || f > u.Hi {
		return 0
	}
	return 1 / float64(u.Hi-u.Lo+1)
}

// Max returns Hi.
func (u Uniform) Max() int { return u.Hi }

// Point is the degenerate distribution concentrated on a single frequency.
// The single-frequency baseline uses it.
type Point struct {
	F int
}

var _ Dist = Point{}

// Sample returns the fixed frequency.
func (p Point) Sample(r *rng.Rand) int { return p.F }

// Prob returns 1 at the fixed frequency, 0 elsewhere.
func (p Point) Prob(f int) float64 {
	if f == p.F {
		return 1
	}
	return 0
}

// Max returns the fixed frequency.
func (p Point) Max() int { return p.F }

// Mixture draws from one of several component distributions with the given
// weights. The Good Samaritan epochs use a 50/50 mixture of a narrow and a
// wide uniform range.
type Mixture struct {
	components []Dist
	weights    []float64
	cumulative []float64
	max        int
}

var _ Dist = (*Mixture)(nil)

// NewMixture returns a mixture of the given components with the given
// weights. Weights must be positive and are normalized to sum to one. It
// panics on empty or mismatched input; these indicate programming errors in
// protocol construction, which is done once at node activation.
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("freqdist: mixture needs matching non-empty components and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w <= 0 {
			panic("freqdist: mixture weights must be positive")
		}
		total += w
	}
	m := &Mixture{
		components: make([]Dist, len(components)),
		weights:    make([]float64, len(weights)),
		cumulative: make([]float64, len(weights)),
	}
	copy(m.components, components)
	acc := 0.0
	for i, w := range weights {
		m.weights[i] = w / total
		acc += w / total
		m.cumulative[i] = acc
		if components[i].Max() > m.max {
			m.max = components[i].Max()
		}
	}
	m.cumulative[len(m.cumulative)-1] = 1 // guard against rounding
	return m
}

// Sample draws a component by weight, then a frequency from it.
func (m *Mixture) Sample(r *rng.Rand) int {
	x := r.Float64()
	for i, c := range m.cumulative {
		if x < c {
			return m.components[i].Sample(r)
		}
	}
	return m.components[len(m.components)-1].Sample(r)
}

// Prob returns the weighted sum of component probabilities at f.
func (m *Mixture) Prob(f int) float64 {
	p := 0.0
	for i, c := range m.components {
		p += m.weights[i] * c.Prob(f)
	}
	return p
}

// Max returns the largest frequency any component can produce.
func (m *Mixture) Max() int { return m.max }

// Special is the Good Samaritan special-round distribution over [1..F]:
// draw d uniformly from [1..L] where L = ⌈lg F⌉, then draw f uniformly from
// [1..min(2^d, F)]. Small frequencies are geometrically favored, which lets
// a special-round sender find receivers regardless of which super-epoch
// (and hence which prefix [1..2^k]) they confine themselves to.
type Special struct {
	f int
	l int
}

var _ Dist = Special{}

// NewSpecial returns the special-round distribution over [1..f]. It panics
// if f < 1.
func NewSpecial(f int) Special {
	if f < 1 {
		panic("freqdist: Special needs F >= 1")
	}
	return Special{f: f, l: CeilLog2(f)}
}

// Sample draws d ~ U[1..L], then f ~ U[1..min(2^d, F)].
func (s Special) Sample(r *rng.Rand) int {
	if s.f == 1 {
		return 1
	}
	d := r.IntRange(1, s.l)
	hi := 1 << uint(d)
	if hi > s.f {
		hi = s.f
	}
	return r.IntRange(1, hi)
}

// Prob returns the exact point probability: the average over d of the
// uniform probability on [1..min(2^d, F)] restricted to f.
func (s Special) Prob(f int) float64 {
	if f < 1 || f > s.f {
		return 0
	}
	if s.f == 1 {
		return 1
	}
	p := 0.0
	for d := 1; d <= s.l; d++ {
		hi := 1 << uint(d)
		if hi > s.f {
			hi = s.f
		}
		if f <= hi {
			p += 1 / float64(hi)
		}
	}
	return p / float64(s.l)
}

// Max returns F.
func (s Special) Max() int { return s.f }

// CeilLog2 returns ⌈log2(n)⌉ for n ≥ 1, and 0 for n ≤ 1. The protocols use
// it for epoch counts (lg N) and super-epoch counts (lg F).
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// NextPow2 returns the smallest power of two >= n, and 1 for n <= 1.
func NextPow2(n int) int {
	return 1 << uint(CeilLog2(n))
}
