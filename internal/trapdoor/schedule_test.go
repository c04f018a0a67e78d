package trapdoor

import (
	"reflect"
	"testing"

	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// scheduleGrid returns valid parameter sets covering degenerate and large
// N, F from 1 to 128, T at 0 and at its bound F−1, non-default
// Θ-constants, and both fault-tolerance modes.
func scheduleGrid() []Params {
	var grid []Params
	for _, n := range []int{0, 1, 2, 3, 512, 1 << 20} {
		for _, f := range []int{1, 2, 7, 128} {
			for _, t := range []int{0, f - 1} {
				for _, c := range [][2]int{{0, 0}, {1, 1}, {3, 11}} {
					for _, ft := range []bool{false, true} {
						grid = append(grid, Params{N: n, F: f, T: t, CEpoch: c[0], CFinal: c[1], FaultTolerant: ft})
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
		if s.lgN != p.LgN() || s.epochLen != p.EpochLen() || s.finalLen != p.FinalEpochLen() {
			t.Errorf("%+v: lgN/ℓE/ℓE+ = %d/%d/%d, want %d/%d/%d", p,
				s.lgN, s.epochLen, s.finalLen, p.LgN(), p.EpochLen(), p.FinalEpochLen())
		}
		if len(s.prob) != s.lgN+1 {
			t.Errorf("%+v: %d probabilities, want %d", p, len(s.prob), s.lgN+1)
		}
		for e := 1; e <= s.lgN; e++ {
			if s.prob[e] != p.BroadcastProb(e) {
				t.Errorf("%+v: prob[%d] = %v, want %v", p, e, s.prob[e], p.BroadcastProb(e))
			}
			if s.epochLenOf(e) != oldEpochLen(p, e) {
				t.Errorf("%+v: epochLenOf(%d) = %d, want %d", p, e, s.epochLenOf(e), oldEpochLen(p, e))
			}
		}
		if s.dist != freqdist.NewUniform(1, p.FPrime()) {
			t.Errorf("%+v: dist = %+v, want [1..%d]", p, s.dist, p.FPrime())
		}
		if s.p != p.withDefaults() || s.p.LeaderTimeout != p.EffectiveLeaderTimeout() {
			t.Errorf("%+v: cached params %+v, want %+v", p, s.p, p.withDefaults())
		}
		if got, want := p.Schedule(), oldSchedule(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Schedule = %+v, want %+v", p, got, want)
		}
		if got, want := p.TotalRounds(), uint64(p.LgN()-1)*p.EpochLen()+p.FinalEpochLen(); got != want {
			t.Errorf("%+v: TotalRounds = %d, want %d", p, got, want)
		}
	}
}

// oldEpochLen is the length of epoch e computed from the Params methods.
func oldEpochLen(p Params, e int) uint64 {
	if e == p.LgN() {
		return p.FinalEpochLen()
	}
	return p.EpochLen()
}

// oldSchedule builds the Figure 1 table row by row from the Params
// methods.
func oldSchedule(p Params) []ScheduleRow {
	rows := make([]ScheduleRow, p.LgN())
	for e := 1; e <= p.LgN(); e++ {
		rows[e-1] = ScheduleRow{Epoch: e, Length: oldEpochLen(p, e), Prob: p.BroadcastProb(e)}
	}
	return rows
}

// allocRounds steps past the whole competition of the alloc-pin parameters
// (TotalRounds = 336) into the leader's announcements.
const allocRounds = 400

var allocParams = Params{N: 16, F: 8, T: 2, FaultTolerant: true}

// TestStepBatchAllocs pins the arena cohort's protocol step at zero heap
// allocations over a whole run: every contender walks all epochs and
// becomes a leader.
func TestStepBatchAllocs(t *testing.T) {
	const count = 16
	a := MustNewArena(allocParams, count)
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
		for r := uint64(1); r <= allocRounds; r++ {
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
			t.Fatalf("node %d did not finish the competition in %d rounds", id, allocRounds)
		}
	}
}

// TestNodeStepAllocs pins Step on a New-built node, the path the
// multi-hop relay takes, at zero heap allocations over a whole run.
func TestNodeStepAllocs(t *testing.T) {
	n := MustNew(allocParams, rng.New(1))
	start, rs := *n, *n.r
	run := func() {
		*n, *n.r = start, rs
		for r := uint64(1); r <= allocRounds; r++ {
			n.Step(r)
		}
	}
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Fatalf("Step: %v allocs per run, want 0", allocs)
	}
	if !n.IsLeader() {
		t.Fatalf("node did not finish the competition in %d rounds", allocRounds)
	}
}
