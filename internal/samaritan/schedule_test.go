package samaritan

import (
	"reflect"
	"testing"

	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// scheduleGrid returns valid parameter sets covering degenerate and large
// N, F from 1 to 128, T at 0 and at its bound F/2, every EpochLogPower and
// non-default Θ-constants.
func scheduleGrid() []Params {
	var grid []Params
	for _, n := range []int{0, 1, 2, 3, 512, 1 << 20} {
		for _, f := range []int{1, 2, 7, 128} {
			for _, t := range []int{0, f / 2} {
				if t >= f {
					continue
				}
				for pow := 0; pow <= 4; pow++ {
					for _, c := range [][3]int{{0, 0, 0}, {1, 1, 1}, {3, 2, 7}} {
						grid = append(grid, Params{N: n, F: f, T: t, EpochLogPower: pow,
							CEpoch: c[0], ThresholdShift: c[1], FallbackFactor: c[2]})
					}
				}
			}
		}
	}
	return grid
}

// TestScheduleMatchesParams is the differential test of the derived
// schedule against the Params methods it caches: every field must agree
// exactly, floats compared with ==.
func TestScheduleMatchesParams(t *testing.T) {
	for _, p := range scheduleGrid() {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		s := newSchedule(p.withDefaults())
		if s.lgN != p.LgN() || s.lgF != p.LgF() || s.epochsPerSuper != p.EpochsPerSuper() ||
			s.fallbackLen != p.FallbackEpochLen() {
			t.Errorf("%+v: lgN/lgF/epochs/fallback = %d/%d/%d/%d, want %d/%d/%d/%d", p,
				s.lgN, s.lgF, s.epochsPerSuper, s.fallbackLen,
				p.LgN(), p.LgF(), p.EpochsPerSuper(), p.FallbackEpochLen())
		}
		if len(s.epochLen) != s.lgF+1 || len(s.threshold) != s.lgF+1 || len(s.narrow) != s.lgF+1 ||
			len(s.prob) != s.lgN+3 {
			t.Errorf("%+v: table lengths %d/%d/%d/%d", p, len(s.epochLen), len(s.threshold), len(s.narrow), len(s.prob))
		}
		for k := 1; k <= s.lgF; k++ {
			if s.epochLen[k] != p.EpochLen(k) || s.threshold[k] != p.SuccessThreshold(k) {
				t.Errorf("%+v: s(%d)/threshold = %d/%d, want %d/%d", p, k,
					s.epochLen[k], s.threshold[k], p.EpochLen(k), p.SuccessThreshold(k))
			}
			if want := freqdist.NewUniform(1, min(1<<uint(k), p.F)); s.narrow[k] != want {
				t.Errorf("%+v: narrow[%d] = %+v, want %+v", p, k, s.narrow[k], want)
			}
		}
		for e := 1; e <= s.epochsPerSuper; e++ {
			if s.prob[e] != p.BroadcastProb(e) {
				t.Errorf("%+v: prob[%d] = %v, want %v", p, e, s.prob[e], p.BroadcastProb(e))
			}
		}
		if s.wide != freqdist.NewUniform(1, p.F) || s.special != freqdist.NewSpecial(p.F) {
			t.Errorf("%+v: wide/special = %+v/%+v", p, s.wide, s.special)
		}
		if s.p != p.withDefaults() {
			t.Errorf("%+v: cached params %+v, want %+v", p, s.p, p.withDefaults())
		}
		if got, want := p.Schedule(), oldSchedule(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Schedule = %+v, want %+v", p, got, want)
		}
		if got, want := p.OptimisticRounds(), oldOptimisticRounds(p); got != want {
			t.Errorf("%+v: OptimisticRounds = %d, want %d", p, got, want)
		}
	}
}

// oldSchedule builds the Figure 2 table row by row from the Params
// methods.
func oldSchedule(p Params) []ScheduleRow {
	var rows []ScheduleRow
	for k := 1; k <= p.LgF(); k++ {
		for e := 1; e <= p.EpochsPerSuper(); e++ {
			rows = append(rows, ScheduleRow{
				Super:      k,
				Epoch:      e,
				Length:     p.EpochLen(k),
				Prob:       p.BroadcastProb(e),
				NarrowBand: min(1<<uint(k), p.F),
				Special:    e > p.LgN(),
			})
		}
	}
	return rows
}

// oldOptimisticRounds sums the super-epoch lengths from the Params
// methods.
func oldOptimisticRounds(p Params) uint64 {
	total := uint64(0)
	for k := 1; k <= p.LgF(); k++ {
		total += uint64(p.EpochsPerSuper()) * p.EpochLen(k)
	}
	return total
}

// TestStepBatchAllocs pins the arena cohort's protocol step at zero heap
// allocations over a whole run without deliveries: every contender walks
// all super-epochs, then the fallback, and becomes a leader. (A samaritan
// holding tallies allocates its report list when it transmits; this run
// has no samaritans.)
func TestStepBatchAllocs(t *testing.T) {
	const count = 8
	p := Params{N: 4, F: 4, T: 2}
	// Optimistic portion 768 rounds, fallback 2·512: leaders by round 1793.
	rounds := p.OptimisticRounds() + uint64(p.LgN())*p.FallbackEpochLen() + 64
	a := MustNewArena(p, count)
	rs := make([]rng.Rand, count)
	ids := make([]int, count)
	locals := make([]uint64, count)
	actFreq := make([]int32, count)
	actTx := make([]bool, count)
	actMsg := make([]msg.Message, count)
	parent := rng.New(1)
	run := func() {
		for id := range ids {
			ids[id] = id
			parent.SplitInto(uint64(id), &rs[id])
			a.NewAgent(sim.NodeID(id), 0, &rs[id])
		}
		lead := &a.nodes[0]
		for r := uint64(1); r <= rounds; r++ {
			for j := range locals {
				locals[j] = r
			}
			lead.StepBatch(ids, locals, actFreq, actTx, actMsg)
		}
	}
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Fatalf("StepBatch: %v allocs per run, want 0", allocs)
	}
	for id := range a.nodes {
		if !a.nodes[id].IsLeader() {
			t.Fatalf("node %d did not finish the competition in %d rounds", id, rounds)
		}
	}
}
