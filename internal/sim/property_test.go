package sim

import (
	"testing"
	"testing/quick"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// replayAgent plays a fixed per-round action sequence.
type replayAgent struct {
	plan []Action
}

func (a *replayAgent) Step(local uint64) Action {
	idx := int(local-1) % len(a.plan)
	return a.plan[idx]
}
func (a *replayAgent) Deliver(msg.Message) {}
func (a *replayAgent) Output() Output      { return Output{} }

// mediumOracle recomputes delivery semantics independently from the
// engine: node i receives in a round iff it listens on a frequency with
// exactly one transmitter that is not jammed.
func mediumOracle(f int, actions []ActionRecord, disrupted *freqset.Set) map[NodeID]NodeID {
	txCount := make(map[int]int)
	txFrom := make(map[int]NodeID)
	for _, a := range actions {
		if a.Transmit {
			txCount[a.Freq]++
			txFrom[a.Freq] = a.Node
		}
	}
	out := make(map[NodeID]NodeID)
	for _, a := range actions {
		if a.Transmit {
			continue
		}
		if txCount[a.Freq] == 1 && !disrupted.Contains(a.Freq) {
			out[a.Node] = txFrom[a.Freq]
		}
	}
	return out
}

// oracleObserver cross-checks every round against the oracle.
type oracleObserver struct {
	f    int
	fail string
}

func (o *oracleObserver) ObserveRound(rec *RoundRecord) {
	want := mediumOracle(o.f, rec.Actions, rec.Disrupted)
	if len(want) != len(rec.Deliveries) {
		o.fail = "delivery count mismatch"
		return
	}
	for _, d := range rec.Deliveries {
		if from, ok := want[d.To]; !ok || from != d.From {
			o.fail = "delivery endpoint mismatch"
			return
		}
	}
}

// Property: for arbitrary random plans and jamming patterns, the engine's
// deliveries match the independent medium oracle in every round.
func TestQuickMediumSemantics(t *testing.T) {
	prop := func(seed uint64, nRaw, fRaw, tRaw uint8) bool {
		n := int(nRaw%6) + 2
		f := int(fRaw%6) + 2
		tBudget := int(tRaw) % f
		r := rng.New(seed)

		plans := make([][]Action, n)
		for i := range plans {
			plan := make([]Action, 8)
			for j := range plan {
				plan[j] = Action{Freq: r.IntRange(1, f), Transmit: r.Bool()}
				if plan[j].Transmit {
					plan[j].Msg = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{UID: uint64(i)}}
				}
			}
			plans[i] = plan
		}

		ob := &oracleObserver{f: f}
		cfg := &Config{
			F:    f,
			T:    tBudget,
			Seed: seed,
			NewAgent: func(id NodeID, activation uint64, rr *rng.Rand) Agent {
				return &replayAgent{plan: plans[id]}
			},
			Schedule:       Staggered{Count: n, Gap: 1},
			MaxRounds:      24,
			RunToMaxRounds: true,
			Observers:      []Observer{ob},
		}
		if tBudget > 0 {
			cfg.Adversary = &randomAdv{f: f, t: tBudget, r: rng.New(seed + 1)}
		}
		if _, err := Run(cfg); err != nil {
			return false
		}
		return ob.fail == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomAdv is a small inline random jammer for property tests.
type randomAdv struct {
	f, t int
	r    *rng.Rand
	set  *freqset.Set
}

func (a *randomAdv) Disrupt(round uint64, h *History) *freqset.Set {
	if a.set == nil {
		a.set = freqset.New(a.f)
	}
	a.set.Clear()
	for _, idx := range a.r.SampleK(a.f, a.t) {
		a.set.Add(idx + 1)
	}
	return a.set
}

// probeAgent is a randomAgent whose BroadcastProb is 1/(k+1) after k
// steps, so a recorded weight tells which step it was probed before.
type probeAgent struct {
	randomAgent
	steps int
}

func (a *probeAgent) Step(local uint64) Action {
	a.steps++
	return a.randomAgent.Step(local)
}

func (a *probeAgent) BroadcastProb() float64 { return 1 / float64(a.steps+1) }

// Property: for random configurations on both medium paths, weight
// probing records every awake node's pre-Step BroadcastProb (0 for nodes
// not yet awake) and does not perturb the run.
func TestQuickProbeWeights(t *testing.T) {
	prop := func(seed uint64, nRaw, fRaw uint8, scan bool) bool {
		n := int(nRaw%10) + 2
		f := int(fRaw%6) + 2
		sched := Staggered{Count: n, Gap: 2}
		bad := false
		check := funcObs(func(rec *RoundRecord) {
			if len(rec.Weights) != n {
				bad = true
			}
			for i, w := range rec.Weights {
				want := 0.0
				if a := sched.ActivationRound(i); a <= rec.Round {
					want = 1 / float64(rec.Round-a+1)
				}
				bad = bad || w != want
			}
		})
		mk := func(probe bool) *Config {
			cfg := &Config{
				F:    f,
				T:    1,
				Seed: seed,
				NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
					return &probeAgent{randomAgent: randomAgent{r: r, f: f}}
				},
				Schedule:       sched,
				Adversary:      &randomAdv{f: f, t: 1, r: rng.New(seed + 9)},
				MaxRounds:      120,
				RunToMaxRounds: true,
			}
			if scan {
				cfg.Medium = MediumScan
			}
			if probe {
				cfg.ProbeWeights = true
				cfg.Observers = []Observer{check}
			}
			return cfg
		}
		plain, err := Run(mk(false))
		if err != nil {
			return false
		}
		probed, err := Run(mk(true))
		if err != nil {
			return false
		}
		return !bad && resultsEqual(plain, probed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adversary budgets are respected in every round (the engine
// panics otherwise), and nodes never receive their own transmissions.
func TestQuickNoSelfDelivery(t *testing.T) {
	prop := func(seed uint64) bool {
		bad := false
		ob := funcObs(func(rec *RoundRecord) {
			for _, d := range rec.Deliveries {
				if d.From == d.To {
					bad = true
				}
			}
		})
		cfg := &Config{
			F:    4,
			T:    1,
			Seed: seed,
			NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
				return &randomAgent{r: r, f: 4}
			},
			Schedule:       Simultaneous{Count: 5},
			Adversary:      &randomAdv{f: 4, t: 1, r: rng.New(seed)},
			MaxRounds:      60,
			RunToMaxRounds: true,
			Observers:      []Observer{ob},
		}
		if _, err := Run(cfg); err != nil {
			return false
		}
		return !bad
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

type funcObs func(rec *RoundRecord)

func (f funcObs) ObserveRound(rec *RoundRecord) { f(rec) }
