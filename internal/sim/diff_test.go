package sim

import (
	"fmt"
	"testing"

	"wsync/internal/rng"
)

// diff_test.go differentially tests the two medium resolvers: the legacy
// O(F + N) scan (MediumScan) is the oracle, the frequency-indexed fast
// path (MediumIndexed) the implementation under test. Every observable —
// per-round action, delivery, clear-frequency and output records, the
// disrupted sets, and the final Result — must be bit-identical over
// randomized schedules, populations, and adversaries.

// traceRecord is a deep copy of one RoundRecord (the engine reuses the
// record's backing storage, so observers must copy what they retain).
type traceRecord struct {
	round      uint64
	disrupted  []int
	actions    []ActionRecord
	deliveries []Delivery
	clear      []int
	outputs    []Output
	weights    []float64
}

// traceObserver retains a deep copy of every round.
type traceObserver struct {
	rounds []traceRecord
}

func (o *traceObserver) ObserveRound(rec *RoundRecord) {
	tr := traceRecord{
		round:      rec.Round,
		disrupted:  rec.Disrupted.Slice(),
		actions:    append([]ActionRecord(nil), rec.Actions...),
		deliveries: append([]Delivery(nil), rec.Deliveries...),
		clear:      append([]int(nil), rec.Clear...),
		outputs:    append([]Output(nil), rec.Outputs...),
	}
	if rec.Weights != nil {
		tr.weights = append([]float64(nil), rec.Weights...)
	}
	o.rounds = append(o.rounds, tr)
}

// diffTraces returns a description of the first divergence, or "".
func diffTraces(a, b *traceObserver) string {
	if len(a.rounds) != len(b.rounds) {
		return fmt.Sprintf("round count %d vs %d", len(a.rounds), len(b.rounds))
	}
	for k := range a.rounds {
		ra, rb := a.rounds[k], b.rounds[k]
		if ra.round != rb.round {
			return fmt.Sprintf("record %d: round %d vs %d", k, ra.round, rb.round)
		}
		if !intsEqual(ra.disrupted, rb.disrupted) {
			return fmt.Sprintf("round %d: disrupted %v vs %v", ra.round, ra.disrupted, rb.disrupted)
		}
		if len(ra.actions) != len(rb.actions) {
			return fmt.Sprintf("round %d: %d vs %d actions", ra.round, len(ra.actions), len(rb.actions))
		}
		for j := range ra.actions {
			if ra.actions[j] != rb.actions[j] {
				return fmt.Sprintf("round %d action %d: %+v vs %+v", ra.round, j, ra.actions[j], rb.actions[j])
			}
		}
		if len(ra.deliveries) != len(rb.deliveries) {
			return fmt.Sprintf("round %d: %d vs %d deliveries", ra.round, len(ra.deliveries), len(rb.deliveries))
		}
		for j := range ra.deliveries {
			if ra.deliveries[j] != rb.deliveries[j] {
				return fmt.Sprintf("round %d delivery %d: %+v vs %+v", ra.round, j, ra.deliveries[j], rb.deliveries[j])
			}
		}
		if !intsEqual(ra.clear, rb.clear) {
			return fmt.Sprintf("round %d: clear %v vs %v", ra.round, ra.clear, rb.clear)
		}
		for j := range ra.outputs {
			if ra.outputs[j] != rb.outputs[j] {
				return fmt.Sprintf("round %d output %d: %+v vs %+v", ra.round, j, ra.outputs[j], rb.outputs[j])
			}
		}
		if len(ra.weights) != len(rb.weights) {
			return fmt.Sprintf("round %d: weights %d vs %d", ra.round, len(ra.weights), len(rb.weights))
		}
		for j := range ra.weights {
			if ra.weights[j] != rb.weights[j] {
				return fmt.Sprintf("round %d weight %d: %v vs %v", ra.round, j, ra.weights[j], rb.weights[j])
			}
		}
	}
	return ""
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffSchedule draws a randomized schedule shape for one differential case.
func diffSchedule(r *rng.Rand, n int) Schedule {
	switch r.IntRange(0, 3) {
	case 0:
		return Simultaneous{Count: n}
	case 1:
		return Staggered{Count: n, Gap: uint64(r.IntRange(1, 5))}
	case 2:
		groups := r.IntRange(1, 3)
		return Burst{Groups: groups, GroupSize: (n + groups - 1) / groups, Gap: uint64(r.IntRange(1, 9))}
	default:
		return RandomWindow(n, uint64(r.IntRange(1, 40)), r.Uint64())
	}
}

// TestMediumDifferential runs the scan oracle and the indexed fast path
// over randomized configurations and asserts identical traces and results.
func TestMediumDifferential(t *testing.T) {
	master := rng.New(0xd1ff)
	cases := 60
	if testing.Short() {
		cases = 20
	}
	for c := 0; c < cases; c++ {
		r := master.Split(uint64(c))
		n := r.IntRange(2, 40)
		f := r.IntRange(2, 24)
		tBudget := r.IntRange(0, f-1)
		seed := r.Uint64()
		advSeed := r.Uint64()
		sched := diffSchedule(r, n)
		probe := r.Bool()
		runToMax := r.Bool()

		mk := func(medium MediumPath, ob Observer) *Config {
			cfg := &Config{
				F:    f,
				T:    tBudget,
				Seed: seed,
				NewAgent: func(id NodeID, activation uint64, rr *rng.Rand) Agent {
					return &randomAgent{r: rr, f: f}
				},
				Schedule:       sched,
				MaxRounds:      200,
				RunToMaxRounds: runToMax,
				ProbeWeights:   probe,
				Observers:      []Observer{ob},
				Medium:         medium,
			}
			if tBudget > 0 {
				cfg.Adversary = &randomAdv{f: f, t: tBudget, r: rng.New(advSeed)}
			}
			return cfg
		}

		scanTrace := &traceObserver{}
		scanRes, err := Run(mk(MediumScan, scanTrace))
		if err != nil {
			t.Fatalf("case %d: scan: %v", c, err)
		}
		idxTrace := &traceObserver{}
		idxRes, err := Run(mk(MediumIndexed, idxTrace))
		if err != nil {
			t.Fatalf("case %d: indexed: %v", c, err)
		}

		if d := diffTraces(scanTrace, idxTrace); d != "" {
			t.Fatalf("case %d (n=%d F=%d t=%d sched=%T): trace divergence: %s",
				c, n, f, tBudget, sched, d)
		}
		if !resultsEqual(scanRes, idxRes) {
			t.Fatalf("case %d: results differ:\nscan:    %+v\nindexed: %+v",
				c, scanRes.Stats, idxRes.Stats)
		}
		if scanRes.Stats.NodeRounds == 0 {
			t.Fatalf("case %d: NodeRounds not counted", c)
		}
	}
}

// TestMergeActiveOutOfOrder exercises the merge path of the active list:
// an Explicit schedule that activates a high index before a low one must
// still record actions in ascending node order.
func TestMergeActiveOutOfOrder(t *testing.T) {
	var order [][]NodeID
	ob := funcObs(func(rec *RoundRecord) {
		ids := make([]NodeID, len(rec.Actions))
		for i, a := range rec.Actions {
			ids[i] = a.Node
		}
		order = append(order, ids)
	})
	cfg := &Config{
		F:    2,
		Seed: 1,
		NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
			return &funcAgent{}
		},
		Schedule:       Explicit{Rounds: []uint64{3, 1, 2}},
		MaxRounds:      3,
		RunToMaxRounds: true,
		Observers:      []Observer{ob},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := [][]NodeID{{1}, {1, 2}, {0, 1, 2}}
	for r, ids := range want {
		if len(order[r]) != len(ids) {
			t.Fatalf("round %d: actions %v, want %v", r+1, order[r], ids)
		}
		for i := range ids {
			if order[r][i] != ids[i] {
				t.Fatalf("round %d: actions %v, want ascending %v", r+1, order[r], ids)
			}
		}
	}
}
