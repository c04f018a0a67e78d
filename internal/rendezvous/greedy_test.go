package rendezvous

import (
	"math"
	"slices"
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/rng"
)

// greedyScan is Greedy.Block as the historical scan loop wrote it: the
// same party-order products, then T passes that skip already-taken
// channels by probing the blocked set. It is the oracle for the −1
// overwrite that replaced the probe.
func greedyScan(rd *Round, t int) []int {
	products := make([]float64, rd.F+1)
	for j := 1; j <= rd.F; j++ {
		products[j] = 1
	}
	for p, s := range rd.Strategies {
		if rd.Locals[p] == 0 {
			continue
		}
		for j := 1; j <= rd.F; j++ {
			products[j] *= s.(Profiled).Prob(rd.Locals[p], j)
		}
	}
	set := freqset.New(rd.F)
	for k := 0; k < t; k++ {
		best, bestVal := 0, -1.0
		for j := 1; j <= rd.F; j++ {
			if !set.Contains(j) && products[j] > bestVal {
				best, bestVal = j, products[j]
			}
		}
		if best == 0 {
			break
		}
		set.Add(best)
	}
	return set.Slice()
}

// rowStrategy is a Profiled test strategy whose marginal row for local
// round l is rows[(l−1) mod len(rows)] (channel f at index f−1). Rows may
// hold anything a float can: ties, zeros, negatives, NaN, infinities.
type rowStrategy struct {
	rows [][]float64
}

func (s rowStrategy) Pick(uint64, *rng.Rand) (int, bool) { return 1, false }

func (s rowStrategy) Prob(local uint64, f int) float64 {
	return s.rows[(local-1)%uint64(len(s.rows))][f-1]
}

// TestGreedyMatchesScan pins Greedy.Block to the scan oracle on product
// rows built to stress the selection: heavy ties, zeros (including −0),
// negative products at, above and below −1, NaN and ±Inf, with asleep
// parties, and T = 0, T = F and T > F.
func TestGreedyMatchesScan(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 0.25, 0.25, 0.5, 0.5, 1, -0.5, -1, -2, math.NaN(), math.Inf(1), math.Inf(-1)}
	r := rng.New(17)
	for trial := 0; trial < 400; trial++ {
		f := 1 + r.Intn(12)
		k := 1 + r.Intn(4)
		rd := &Round{Global: 1, F: f, Locals: make([]uint64, k), Strategies: make([]Strategy, k)}
		for p := 0; p < k; p++ {
			rows := make([][]float64, 1+r.Intn(3))
			for i := range rows {
				rows[i] = make([]float64, f)
				for j := range rows[i] {
					if r.Bool() {
						rows[i][j] = values[r.Intn(len(values))]
					} else {
						rows[i][j] = float64(r.Intn(4)) / 4
					}
				}
			}
			rd.Strategies[p] = rowStrategy{rows}
			rd.Locals[p] = uint64(r.Intn(4)) // 0 = asleep
		}
		for _, tt := range []int{0, 1, f / 2, f, f + 3} {
			g := NewGreedy(f, tt)
			for round := 0; round < 3; round++ { // reuse across rounds
				want := greedyScan(rd, tt)
				if got := g.Block(rd).Slice(); !slices.Equal(got, want) {
					t.Fatalf("trial %d F=%d T=%d round %d: Block %v, scan %v", trial, f, tt, round, got, want)
				}
				for p := range rd.Locals {
					rd.Locals[p]++
				}
			}
		}
	}
}
