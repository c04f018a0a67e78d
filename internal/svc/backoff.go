package svc

import (
	"math/rand"
	"time"
)

// Backoff produces jittered exponential delays for idle polling and
// transport-failure retries. The sequence doubles from Base up to Max;
// each delay is drawn uniformly from [d/2, d) ("equal jitter"), which
// keeps the expected wait near 3d/4 while decorrelating a fleet of
// workers that all went idle at the same instant — the thundering-herd
// fix for the old fixed 500 ms poll loop.
//
// The zero value works (Base defaults to 100 ms, Max to 32×Base). Not
// safe for concurrent use; each loop owns its own Backoff.
type Backoff struct {
	// Base is the first (pre-jitter) delay. <= 0 means 100 ms.
	Base time.Duration
	// Max caps the pre-jitter delay. <= 0 means 32×Base.
	Max time.Duration
	// Rand returns a uniform sample in [0, 1); nil means math/rand.
	// Injectable so tests can pin the jitter.
	Rand func() float64

	n int
}

// Next returns the next delay in the sequence and advances it.
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 32 * base
	}
	d := base
	for i := 0; i < b.n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.n++
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	return d/2 + time.Duration(rnd()*float64(d/2))
}

// Reset returns the sequence to Base. Loops call it on success — an
// assignment for the worker poll, a stream that delivered events for
// the client watch — so backoff only grows through consecutive dry
// spells.
func (b *Backoff) Reset() { b.n = 0 }
