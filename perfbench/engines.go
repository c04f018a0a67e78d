package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// digest hashes a result's JSON encoding: every exported Stats or Result
// field, per-node SyncRound included.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding result: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// newAgentFunc is the agent constructor the engines' configs take.
type newAgentFunc = func(sim.NodeID, uint64, *rng.Rand) sim.Agent

// engineOp runs one engine operation: input number input of the
// workload's pool, generated from r, as operation op of the closed loop.
type engineOp func(r *rng.Rand, input, op int, tr *tracer) opResult

// engineSession runs one engine workload's operations. Each operation
// builds its inputs afresh from the seed and the input number, because
// arenas, waypoint models and mask models are single-run. Operation
// times are scaled to the reference host speed.
type engineSession struct {
	seed  uint64
	op    engineOp
	speed *hostSpeed
}

func (s *engineSession) run(input, op int, tr *tracer) opResult {
	r := s.op(rng.New(s.seed).Split(uint64(input)+1), input, op, tr)
	r.elapsed = s.speed.scale(r.elapsed)
	if tr != nil {
		tr.sample("host.slowdown", s.speed.slowdown())
	}
	return r
}

func (s *engineSession) close() {}

// engineWorkload builds an engine workload whose set-up runs the first
// warmup operations; their scaled time is the set-up time.
func engineWorkload(name string, pool, warmup int, op engineOp) workload {
	return workload{name: name, pool: pool, open: func(seed uint64, _ bool) (session, time.Duration, error) {
		s := &engineSession{seed: seed, op: op, speed: newHostSpeed()}
		var setup time.Duration
		for i := 0; i < warmup; i++ {
			r := s.run(i, i, nil)
			if r.err != nil {
				return nil, 0, fmt.Errorf("warm-up: %w", r.err)
			}
			setup += r.elapsed
		}
		return s, setup, nil
	}}
}

// Dense-clique sizes. F=128 and t=16 match the X10 dispatch experiments;
// N=512 and the 512-round horizon keep one run near 25 ms on a 2-core
// Xeon, so a pass over the 128-input pool takes about 3 s.
const (
	denseF       = 128
	denseT       = 16
	denseN       = 512
	denseHorizon = 512
)

// denseOp is one dense-clique operation: every node awake from round 1,
// run to a fixed horizon against a random t-subset jammer, with all
// agents built in one arena so that they step as one cohort. Even inputs
// run Trapdoor and odd inputs Good Samaritan. The two protocols' run
// times overlap, so the median over both is steady.
func denseOp(r *rng.Rand, input, op int, tr *tracer) opResult {
	var newAgent newAgentFunc
	if input%2 == 0 {
		newAgent = trapdoor.MustNewArena(trapdoor.Params{N: denseN, F: denseF, T: denseT}, denseN).NewAgent
	} else {
		newAgent = samaritan.MustNewArena(samaritan.Params{N: denseN, F: denseF, T: denseT}, denseN).NewAgent
	}
	cfg := &sim.Config{
		F:              denseF,
		T:              denseT,
		Seed:           r.Uint64(),
		NewAgent:       newAgent,
		Schedule:       sim.Simultaneous{Count: denseN},
		Adversary:      adversary.NewRandom(denseF, denseT, r.Uint64()),
		MaxRounds:      denseHorizon,
		RunToMaxRounds: true,
	}
	if tr != nil {
		cfg.NewAgent = tr.agents(cfg.NewAgent)
		cfg.Adversary = &tracedAdversary{cfg.Adversary, tr}
	}
	var res *sim.Result
	var err error
	start, end, cpu := timed(func() { res, err = sim.Run(cfg) })
	out := opResult{elapsed: cpu}
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		tr.engineRun("sim", op, start, end)
		tr.add("sim.node_rounds", float64(res.Stats.NodeRounds))
		tr.add("sim.deliveries", float64(res.Stats.Deliveries))
		tr.add("sim.collisions", float64(res.Stats.Collisions))
	}
	if want := uint64(denseN) * denseHorizon; res.Stats.NodeRounds != want {
		out.err = fmt.Errorf("dense-clique: %d node-rounds, want N × horizon = %d", res.Stats.NodeRounds, want)
	}
	out.nodeRounds = res.Stats.NodeRounds
	out.digest = digest(res)
	return out
}

// Churn-graph sizes: a random geometric graph of mean degree about 11
// (radius 0.06) under random-waypoint mobility with 64 movers per round,
// nodes waking at random over the first 64 rounds, run to a fixed
// horizon short enough for about 55 ms per run, so a pass over the
// 100-input pool takes about 5.5 s.
const (
	churnN       = 1024
	churnF       = 8
	churnT       = 2
	churnWindow  = 64
	churnHorizon = 160
)

// churnOp is one churn-graph operation: multihop relay agents (Trapdoor
// underneath, stepped per node) on a moving geometric graph.
func churnOp(r *rng.Rand, _, op int, tr *tracer) opResult {
	model := churn.NewWaypoint(churnN, 0.06, 0.003, 64, r.Uint64())
	sched := sim.RandomWindow(churnN, churnWindow, r.Uint64())
	simSeed, advSeed := r.Uint64(), r.Uint64()
	p := trapdoor.Params{N: 64, F: churnF, T: churnT}
	cfg := &multihop.Config{
		F:        churnF,
		T:        churnT,
		Seed:     simSeed,
		Topology: model.Topology(),
		Churn:    model,
		NewAgent: func(_ sim.NodeID, _ uint64, nodeRand *rng.Rand) sim.Agent {
			return multihop.MustNewRelay(p, nodeRand)
		},
		Schedule:  sched,
		Adversary: adversary.NewRandom(churnF, churnT, advSeed),
		MaxRounds: churnHorizon,
		RunToMax:  true,
	}
	if tr != nil {
		cfg.NewAgent = tr.agents(cfg.NewAgent)
		cfg.Adversary = &tracedAdversary{cfg.Adversary, tr}
		cfg.Churn = &tracedChurn{cfg.Churn, tr}
	}
	var res *multihop.Result
	var err error
	start, end, cpu := timed(func() { res, err = multihop.Run(cfg) })
	out := opResult{elapsed: cpu}
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		tr.engineRun("multihop", op, start, end)
		tr.add("multihop.node_rounds", float64(res.NodeRounds))
		tr.add("multihop.deliveries", float64(res.Deliveries))
		tr.add("multihop.collisions", float64(res.Collisions))
		tr.add("churn.rounds", float64(res.ChurnRounds))
	}
	var want uint64
	for n := 0; n < churnN; n++ {
		if a := sched.ActivationRound(n); a <= churnHorizon {
			want += churnHorizon - a + 1
		}
	}
	if res.NodeRounds != want || res.Rounds != churnHorizon {
		out.err = fmt.Errorf("churn-graph: %d node-rounds in %d rounds, want %d in %d", res.NodeRounds, res.Rounds, want, churnHorizon)
	}
	out.nodeRounds = res.NodeRounds
	out.digest = digest(res)
	return out
}

// Rendezvous-party sizes: k parties on a band of F channels, t blocked
// per round, waking 4 rounds apart, with every (party, channel) mask slot
// flipping with probability rendezvousMaskRate per round.
const (
	rendezvousK        = 16
	rendezvousF        = 64
	rendezvousT        = 24
	rendezvousMaskRate = 0.02
	rendezvousMaxRound = 1 << 16
)

// rendezvousOp is one rendezvous-party operation: a k-party game played
// to all-met. Even inputs face the greedy product jammer, odd inputs a
// random t-subset jammer.
func rendezvousOp(r *rng.Rand, input, op int, tr *tracer) opResult {
	simSeed, advSeed, maskSeed := r.Uint64(), r.Uint64(), r.Uint64()
	width := rendezvous.OptimalWidth(rendezvousF, rendezvousT)
	parties := make([]rendezvous.Party, rendezvousK)
	for p := range parties {
		parties[p] = rendezvous.Party{Strategy: width, Wake: uint64(1 + 4*p)}
	}
	var jammer rendezvous.Jammer = rendezvous.NewGreedy(rendezvousF, rendezvousT)
	if input%2 == 1 {
		jammer = rendezvous.NewChurn(rendezvousF, adversary.NewRandom(rendezvousF, rendezvousT, advSeed))
	}
	cfg := &rendezvous.Config{
		F:         rendezvousF,
		Parties:   parties,
		Jammer:    jammer,
		Masks:     churn.NewMaskFlip(rendezvousK, rendezvousF, rendezvousMaskRate, maskSeed),
		MaxRounds: rendezvousMaxRound,
		Seed:      simSeed,
	}
	if tr != nil {
		for p := range parties {
			parties[p].Strategy = &tracedStrategy{width, tr}
		}
		cfg.Jammer = &tracedJammer{cfg.Jammer, tr}
		cfg.Masks = &tracedMasks{cfg.Masks, tr}
	}
	var res *rendezvous.Result
	var err error
	start, end, cpu := timed(func() { res, err = rendezvous.Run(cfg) })
	out := opResult{elapsed: cpu}
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		tr.engineRun("rendezvous", op, start, end)
		tr.add("rendezvous.node_rounds", float64(res.NodeRounds))
		tr.add("rendezvous.rounds", float64(res.Rounds))
		tr.add("rendezvous.meetings", float64(res.Meetings))
	}
	if res.AllMet == 0 {
		out.err = fmt.Errorf("rendezvous-party: input %d never reached all-met in %d rounds", input, res.Rounds)
	}
	out.nodeRounds = res.NodeRounds
	out.digest = digest(res)
	return out
}
