package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/msg"
	"wsync/internal/multihop"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// golden_test.go pins the round engine's results to digests recorded
// before the engine was last restructured. The differential tests compare
// two paths of the same build, so a change that shifts both paths alike
// passes them; this test compares against fixed history instead. Each
// case hashes the JSON of its Result and, when observed, every
// RoundRecord the observers saw.

// recordHash is an Observer that folds each RoundRecord into a hash.
type recordHash struct{ h hash.Hash }

func (o recordHash) ObserveRound(rec *sim.RoundRecord) {
	data, err := json.Marshal(struct {
		Round      uint64
		Disrupted  []int
		Actions    []sim.ActionRecord
		Deliveries []sim.Delivery
		Clear      []int
		Outputs    []sim.Output
		Weights    []float64
	}{rec.Round, rec.Disrupted.Slice(), rec.Actions, rec.Deliveries, rec.Clear, rec.Outputs, rec.Weights})
	if err != nil {
		panic(err)
	}
	o.h.Write(data)
}

// randomAgent acts at random, syncs after a drawn number of receptions,
// and reports leadership and a broadcast probability.
type randomAgent struct {
	r      *rng.Rand
	f      int
	needed int
	heard  int
	leader bool
}

func newRandomAgent(r *rng.Rand, f int) *randomAgent {
	return &randomAgent{r: r, f: f, needed: 1 + r.Intn(5), leader: r.Intn(3) == 0}
}

func (a *randomAgent) Step(local uint64) sim.Action {
	freq := 1 + a.r.Intn(a.f)
	if a.r.Intn(3) == 0 {
		return sim.Action{Freq: freq, Transmit: true,
			Msg: msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local, UID: a.r.Uint64() % 4096}}}
	}
	return sim.Action{Freq: freq}
}

func (a *randomAgent) Deliver(msg.Message)    { a.heard++ }
func (a *randomAgent) IsLeader() bool         { return a.leader }
func (a *randomAgent) BroadcastProb() float64 { return 1 / 3.0 }

func (a *randomAgent) Output() sim.Output {
	if a.heard >= a.needed {
		return sim.Output{Value: uint64(a.heard), Synced: true}
	}
	return sim.Output{}
}

type newAgentFunc = func(sim.NodeID, uint64, *rng.Rand) sim.Agent

func trapdoorArena(n, f, t int) newAgentFunc {
	return trapdoor.MustNewArena(trapdoor.Params{N: n, F: f, T: t}, n).NewAgent
}

func samaritanArena(n, f, t int) newAgentFunc {
	return samaritan.MustNewArena(samaritan.Params{N: n, F: f, T: t}, n).NewAgent
}

func trapdoorNodes(n, f, t int) newAgentFunc {
	return func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
		return trapdoor.MustNew(trapdoor.Params{N: n, F: f, T: t}, r)
	}
}

func randomAgents(_, f, _ int) newAgentFunc {
	return func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent { return newRandomAgent(r, f) }
}

func relayAgents(n, f, t int) newAgentFunc {
	return func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
		return multihop.MustNewRelay(trapdoor.Params{N: n, F: f, T: t}, r)
	}
}

func crashingRelays(n, f, t int) newAgentFunc {
	return func(id sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
		return &adversary.CrashAgent{Inner: multihop.MustNewRelay(trapdoor.Params{N: n, F: f, T: t}, r), CrashAt: uint64(5 + 7*int(id)%40)}
	}
}

// simGolden lists the single-hop cases. Each builds a fresh Config.
var simGolden = []struct {
	name    string
	observe bool
	cfg     func() *sim.Config
}{
	{"trapdoor-arena/random", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 1, NewAgent: trapdoorArena(48, 8, 2), Schedule: sim.Simultaneous{Count: 48},
			Adversary: adversary.NewRandom(8, 2, 11)}
	}},
	{"samaritan-arena/staggered/reactive", false, func() *sim.Config {
		return &sim.Config{F: 16, T: 3, Seed: 2, NewAgent: samaritanArena(24, 16, 3), Schedule: sim.Staggered{Count: 24, Gap: 3},
			Adversary: adversary.NewReactive(16, 3)}
	}},
	{"trapdoor-nodes/stalker", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 3, Seed: 3, NewAgent: trapdoorNodes(32, 8, 3), Schedule: sim.Simultaneous{Count: 32},
			Adversary: adversary.NewStalker(8, 3)}
	}},
	{"trapdoor-arena/reactive/observed", true, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 4, NewAgent: trapdoorArena(24, 8, 2), Schedule: sim.RandomWindow(24, 40, 4),
			Adversary: adversary.NewReactive(8, 2)}
	}},
	{"samaritan-arena/stalker/observed", true, func() *sim.Config {
		return &sim.Config{F: 16, T: 4, Seed: 5, NewAgent: samaritanArena(16, 16, 4), Schedule: sim.Simultaneous{Count: 16},
			Adversary: adversary.NewStalker(16, 4)}
	}},
	{"random/stopwhen", true, func() *sim.Config {
		return &sim.Config{F: 4, T: 1, Seed: 6, NewAgent: randomAgents(20, 4, 1), Schedule: sim.RandomWindow(20, 30, 6),
			Adversary: adversary.NewRandom(4, 1, 6), RunToMaxRounds: true, MaxRounds: 500,
			StopWhen: func(h *sim.History) bool { return h.EverClear && h.Completed >= h.FirstClear+17 }}
	}},
	{"trapdoor-arena/stopwhen-last-round", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 7, NewAgent: trapdoorArena(32, 8, 2), Schedule: sim.Simultaneous{Count: 32},
			MaxRounds: 60, StopWhen: func(h *sim.History) bool { return h.Completed == 60 }}
	}},
	{"trapdoor-arena/run-to-max", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 8, NewAgent: trapdoorArena(32, 8, 2), Schedule: sim.Simultaneous{Count: 32},
			Adversary: adversary.NewSweep(8, 2, 1), RunToMaxRounds: true, MaxRounds: 300}
	}},
	{"trapdoor-arena/wire-fidelity", true, func() *sim.Config {
		return &sim.Config{F: 8, T: 1, Seed: 9, NewAgent: trapdoorArena(16, 8, 1), Schedule: sim.Staggered{Count: 16, Gap: 2},
			Adversary: adversary.NewRandom(8, 1, 9), WireFidelity: true}
	}},
	{"samaritan-arena/wire-fidelity", false, func() *sim.Config {
		return &sim.Config{F: 16, T: 2, Seed: 10, NewAgent: samaritanArena(12, 16, 2), Schedule: sim.Simultaneous{Count: 12},
			Adversary: adversary.NewRandom(16, 2, 10), WireFidelity: true}
	}},
	{"trapdoor-arena/probe-weights", true, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 11, NewAgent: trapdoorArena(24, 8, 2), Schedule: sim.Staggered{Count: 24, Gap: 1},
			Adversary: adversary.NewRandom(8, 2, 11), ProbeWeights: true}
	}},
	{"random/probe-weights/scan", true, func() *sim.Config {
		return &sim.Config{F: 6, T: 2, Seed: 12, NewAgent: randomAgents(16, 6, 2), Schedule: sim.RandomWindow(16, 20, 12),
			Adversary: adversary.NewBursty(6, 2, 3, 2, 12), ProbeWeights: true, Medium: sim.MediumScan}
	}},
	{"trapdoor-arena/hits-max", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 13, NewAgent: trapdoorArena(64, 8, 2), Schedule: sim.Simultaneous{Count: 64},
			Adversary: adversary.NewRandom(8, 2, 13), MaxRounds: 40}
	}},
	{"trapdoor-arena/scan", false, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 14, NewAgent: trapdoorArena(32, 8, 2), Schedule: sim.RandomWindow(32, 50, 14),
			Adversary: adversary.NewRandom(8, 2, 14), Medium: sim.MediumScan}
	}},
	{"samaritan-arena/no-batch", false, func() *sim.Config {
		return &sim.Config{F: 16, T: 3, Seed: 15, NewAgent: samaritanArena(20, 16, 3), Schedule: sim.Simultaneous{Count: 20},
			Adversary: adversary.NewLowPrefix(16, 2), NoBatch: true}
	}},
	{"trapdoor-arena/burst", true, func() *sim.Config {
		return &sim.Config{F: 8, T: 2, Seed: 16, NewAgent: trapdoorArena(24, 8, 2), Schedule: sim.Burst{Groups: 3, GroupSize: 8, Gap: 25},
			Adversary: adversary.NewPrefix(8, 2)}
	}},
	{"random/out-of-order-wakes", true, func() *sim.Config {
		return &sim.Config{F: 5, T: 1, Seed: 17, NewAgent: randomAgents(6, 5, 1), Schedule: sim.Explicit{Rounds: []uint64{9, 1, 4, 1, 12, 2}},
			Adversary: adversary.NewReactive(5, 1)}
	}},
	{"trapdoor-nodes/single-frequency", false, func() *sim.Config {
		return &sim.Config{F: 1, T: 0, Seed: 18, NewAgent: trapdoorNodes(8, 1, 0), Schedule: sim.Staggered{Count: 8, Gap: 5}}
	}},
	{"mixed-arenas", false, func() *sim.Config {
		trap, sam := trapdoorArena(20, 16, 2), samaritanArena(20, 16, 2)
		return &sim.Config{F: 16, T: 2, Seed: 19, Schedule: sim.RandomWindow(20, 25, 19), Adversary: adversary.NewRandom(16, 2, 19),
			NewAgent: func(id sim.NodeID, a uint64, r *rng.Rand) sim.Agent {
				if id%2 == 0 {
					return trap(id, a, r)
				}
				return sam(id, a, r)
			}}
	}},
	{"crash-agents/reactive/observed", true, func() *sim.Config {
		inner := trapdoorNodes(16, 8, 2)
		return &sim.Config{F: 8, T: 2, Seed: 20, Schedule: sim.Simultaneous{Count: 16}, Adversary: adversary.NewReactive(8, 2),
			MaxRounds: 400, NewAgent: func(id sim.NodeID, a uint64, r *rng.Rand) sim.Agent {
				return &adversary.CrashAgent{Inner: inner(id, a, r), CrashAt: uint64(3 + 11*int(id)%50)}
			}}
	}},
}

// multihopGolden lists the multi-hop cases. Each builds a fresh Config.
var multihopGolden = []struct {
	name    string
	observe bool
	cfg     func() *multihop.Config
}{
	{"grid/relay/random", false, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 1, Topology: multihop.Grid(6, 6), NewAgent: relayAgents(64, 4, 1),
			Adversary: adversary.NewRandom(4, 1, 1)}
	}},
	{"line/relay/staggered", false, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 2, Topology: multihop.Line(16), NewAgent: relayAgents(16, 4, 1),
			Schedule: sim.Staggered{Count: 16, Gap: 4}, Adversary: adversary.NewPrefix(4, 1)}
	}},
	{"geometric/relay/reactive/observed", true, func() *multihop.Config {
		return &multihop.Config{F: 8, T: 2, Seed: 3, Topology: multihop.RandomGeometric(40, 0.3, 3), NewAgent: relayAgents(64, 8, 2),
			Schedule: sim.RandomWindow(40, 30, 3), Adversary: adversary.NewReactive(8, 2)}
	}},
	{"grid/random/stalker/observed", true, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 4, Topology: multihop.Grid(5, 4), NewAgent: randomAgents(20, 4, 1),
			Adversary: adversary.NewStalker(4, 1)}
	}},
	{"grid/random/reactive", false, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 5, Topology: multihop.Grid(4, 4), NewAgent: randomAgents(16, 4, 1),
			Adversary: adversary.NewReactive(4, 1)}
	}},
	{"clique/trapdoor-arena", true, func() *multihop.Config {
		return &multihop.Config{F: 8, T: 2, Seed: 6, Topology: multihop.Clique(24), NewAgent: trapdoorArena(24, 8, 2),
			Adversary: adversary.NewRandom(8, 2, 6)}
	}},
	{"geometric/relay/stopwhen", false, func() *multihop.Config {
		return &multihop.Config{F: 8, T: 2, Seed: 7, Topology: multihop.RandomGeometric(30, 0.35, 7), NewAgent: relayAgents(32, 8, 2),
			Adversary: adversary.NewRandom(8, 2, 7), StopWhen: func(r uint64) bool { return r == 37 }}
	}},
	{"grid/relay/stopwhen-last-round", false, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 8, Topology: multihop.Grid(3, 3), NewAgent: relayAgents(16, 4, 1),
			MaxRounds: 50, StopWhen: func(r uint64) bool { return r == 50 }}
	}},
	{"line/relay/run-to-max", false, func() *multihop.Config {
		return &multihop.Config{F: 4, T: 1, Seed: 9, Topology: multihop.Line(12), NewAgent: relayAgents(16, 4, 1),
			Adversary: adversary.NewSweep(4, 1, 1), RunToMax: true, MaxRounds: 250}
	}},
	{"geometric/relay/hits-max", false, func() *multihop.Config {
		return &multihop.Config{F: 8, T: 2, Seed: 10, Topology: multihop.RandomGeometric(50, 0.2, 10), NewAgent: relayAgents(64, 8, 2),
			Adversary: adversary.NewRandom(8, 2, 10), MaxRounds: 30}
	}},
	{"geometric/relay/scan", false, func() *multihop.Config {
		return &multihop.Config{F: 8, T: 2, Seed: 11, Topology: multihop.RandomGeometric(30, 0.3, 11), NewAgent: relayAgents(32, 8, 2),
			Schedule: sim.RandomWindow(30, 20, 11), Adversary: adversary.NewRandom(8, 2, 11), Medium: sim.MediumScan}
	}},
	{"clique/samaritan-arena/no-batch", false, func() *multihop.Config {
		return &multihop.Config{F: 16, T: 2, Seed: 12, Topology: multihop.Clique(12), NewAgent: samaritanArena(12, 16, 2),
			Adversary: adversary.NewRandom(16, 2, 12), NoBatch: true}
	}},
	{"waypoint/relay", false, func() *multihop.Config {
		m := churn.NewWaypoint(64, 0.2, 0.02, 8, 13)
		return &multihop.Config{F: 4, T: 1, Seed: 13, Topology: m.Topology(), Churn: m, NewAgent: relayAgents(64, 4, 1),
			Schedule: sim.RandomWindow(64, 20, 13), Adversary: adversary.NewRandom(4, 1, 13), RunToMax: true, MaxRounds: 120}
	}},
	{"waypoint/relay/rebuild", false, func() *multihop.Config {
		m := churn.NewWaypoint(64, 0.2, 0.02, 8, 13)
		return &multihop.Config{F: 4, T: 1, Seed: 13, Topology: m.Topology(), Churn: m, ChurnRebuild: true, NewAgent: relayAgents(64, 4, 1),
			Schedule: sim.RandomWindow(64, 20, 13), Adversary: adversary.NewRandom(4, 1, 13), RunToMax: true, MaxRounds: 120}
	}},
	{"flip/random/reactive/observed", true, func() *multihop.Config {
		base := multihop.Grid(5, 5)
		return &multihop.Config{F: 4, T: 1, Seed: 14, Topology: base, Churn: churn.NewFlip(base, 0.1, 14), NewAgent: randomAgents(25, 4, 1),
			Adversary: adversary.NewReactive(4, 1), MaxRounds: 200}
	}},
	{"flip/random/reactive/observed/rebuild", true, func() *multihop.Config {
		base := multihop.Grid(5, 5)
		return &multihop.Config{F: 4, T: 1, Seed: 14, Topology: base, Churn: churn.NewFlip(base, 0.1, 14), ChurnRebuild: true,
			NewAgent: randomAgents(25, 4, 1), Adversary: adversary.NewReactive(4, 1), MaxRounds: 200}
	}},
	{"flip/relay/scan", false, func() *multihop.Config {
		base := multihop.RandomGeometric(32, 0.3, 15)
		return &multihop.Config{F: 8, T: 2, Seed: 15, Topology: base, Churn: churn.NewFlip(base, 0.05, 15), NewAgent: relayAgents(32, 8, 2),
			Adversary: adversary.NewRandom(8, 2, 15), Medium: sim.MediumScan, RunToMax: true, MaxRounds: 150}
	}},
	{"partition/relay/staggered", true, func() *multihop.Config {
		base := multihop.Grid(6, 3)
		return &multihop.Config{F: 4, T: 1, Seed: 16, Topology: base, Churn: churn.NewPartition(base, 12, 4), NewAgent: relayAgents(32, 4, 1),
			Schedule: sim.Staggered{Count: 18, Gap: 2}, Adversary: adversary.NewStalker(4, 1), MaxRounds: 300}
	}},
	{"compose/crash-relays/bursty", false, func() *multihop.Config {
		base := multihop.Grid(4, 4)
		return &multihop.Config{F: 4, T: 1, Seed: 17, Topology: base,
			Churn:    churn.NewCompose(churn.NewFlip(base, 0.08, 17), churn.NewPartition(base, 10, 3)),
			NewAgent: crashingRelays(16, 4, 1), Schedule: sim.RandomWindow(16, 10, 17), Adversary: adversary.NewBursty(4, 1, 4, 3, 17), MaxRounds: 300}
	}},
	{"waypoint/trapdoor-arena/out-of-order-wakes", true, func() *multihop.Config {
		m := churn.NewWaypoint(8, 0.5, 0.05, 3, 18)
		return &multihop.Config{F: 4, T: 1, Seed: 18, Topology: m.Topology(), Churn: m, NewAgent: trapdoorArena(8, 4, 1),
			Schedule: sim.Explicit{Rounds: []uint64{7, 1, 3, 1, 9, 2, 2, 5}}, Adversary: adversary.NewReactive(4, 1)}
	}},
}

func digestRun(t *testing.T, observe bool, run func(obs []sim.Observer) (any, error)) string {
	t.Helper()
	h := sha256.New()
	var obs []sim.Observer
	if observe {
		obs = []sim.Observer{recordHash{h}}
	}
	res, err := run(obs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGolden runs every case and compares its digest to the
// recorded one. On a mismatch the log lists every case's digest.
func TestEngineGolden(t *testing.T) {
	var table string
	check := func(engine, name, got string) {
		key := engine + " " + name
		table += fmt.Sprintf("\t%q: %q,\n", key, got)
		if want := goldenDigests[key]; got != want {
			t.Errorf("%s: digest %s, recorded %s", key, got, want)
		}
	}
	for _, c := range simGolden {
		got := digestRun(t, c.observe, func(obs []sim.Observer) (any, error) {
			cfg := c.cfg()
			cfg.Observers = obs
			return sim.Run(cfg)
		})
		check("sim", c.name, got)
	}
	for _, c := range multihopGolden {
		got := digestRun(t, c.observe, func(obs []sim.Observer) (any, error) {
			cfg := c.cfg()
			cfg.Observers = obs
			return multihop.Run(cfg)
		})
		check("multihop", c.name, got)
	}
	if t.Failed() {
		t.Log("digests:\n" + table)
	}
}

// goldenDigests holds the recorded digest of every case, keyed by engine
// and case name.
var goldenDigests = map[string]string{
	"sim trapdoor-arena/random":                           "debaa18053cbb40b7bc0df5ca2e1e441afb1335dfcccb92c2ef7701d71581af1",
	"sim samaritan-arena/staggered/reactive":              "18e5eb3beca2f92f6a2cabdb4ebede056f71121dd6fc8116cb8c917c37fc5deb",
	"sim trapdoor-nodes/stalker":                          "fbdd8c35d343d974e5727029c48b4740cf76df60d96f073df70e52dc584c1d1d",
	"sim trapdoor-arena/reactive/observed":                "a370168926639cc6d16c9f4900f4f7549bb558fe14bdcfba2b9dce711ae52760",
	"sim samaritan-arena/stalker/observed":                "2b583b780e6a00906916dfda0004eeb942b82e033684852a1711d53c8bc00d75",
	"sim random/stopwhen":                                 "52f5f4588e6b01b0d3cc25dbad1b741f5d4ffc663bf0719a2ae60a2daeb9f1e3",
	"sim trapdoor-arena/stopwhen-last-round":              "dd38558d36c3ae46cf6bc8529d35c8b6e20e1035be9eaebd10f385f709252b5d",
	"sim trapdoor-arena/run-to-max":                       "08ff8c2302c0fdc525102f187782105bf58312e46bd991bf3d16d93b48c42821",
	"sim trapdoor-arena/wire-fidelity":                    "fe9d64658e411eaa06a04b2f8d65da09ed64c327d90b37bb30002c9886e7d30e",
	"sim samaritan-arena/wire-fidelity":                   "0976d274efef45075a9743994573ce088b736cead6f8b4d8fb7796896c5791ce",
	"sim trapdoor-arena/probe-weights":                    "ad5da2d4b4a201c2bb9041ba680809788083bc53267b72e3d3dddcaecd3fabfa",
	"sim random/probe-weights/scan":                       "c78d9cbaf084b7dd99e070755b1d18b74fd2085efd6d24b5e0b97e6a1a6f8a78",
	"sim trapdoor-arena/hits-max":                         "9001e32f2b7d0523ba7ef89a5849eb0167e34054a7004580ddc54fc2bde65dd7",
	"sim trapdoor-arena/scan":                             "8ae8e09aa7e547a135fc280db3c2c4786573b437a464f049b600375669599b5b",
	"sim samaritan-arena/no-batch":                        "518bb3021532b52aaa2d30ab805857fc295a98e88a1ecd50e6ff2a3b451d12b2",
	"sim trapdoor-arena/burst":                            "d9aa687adc1a139b4d2eaa2eb7c44aa6093e84e1c532832ad8fe2450436eaf3c",
	"sim random/out-of-order-wakes":                       "9b310df37318ba269b70fb26e5d6f565c1284e9eded6a0ed349261bd9de3d6a7",
	"sim trapdoor-nodes/single-frequency":                 "dae5986300a2dfe4082d7a9af20669fbaca5063e3cddf9930f1e8ca2b83efed9",
	"sim mixed-arenas":                                    "8439add87559b294e3f650058e2b3f3cced5d0d48ae96913d19e6f453d685a8e",
	"sim crash-agents/reactive/observed":                  "21c562a46625169d7113b5d036b012233d75036de5396276007dc4be52edad7c",
	"multihop grid/relay/random":                          "60ca65314ae53833e71cbbfa302ce03cb08179df003b7541854f9fa24558b872",
	"multihop line/relay/staggered":                       "605f57172dae91cbb32733720d2f0173196c26ff45efda9ce4f31bb686914517",
	"multihop geometric/relay/reactive/observed":          "9df23e6135bd0542040ed2c485d8b7e547203f4d7754a40f5ed878344fc797e4",
	"multihop grid/random/stalker/observed":               "f6a48488644cef9fa3df02f6bb60156d2054b5e880aa3e9eb076b800cd1a53e6",
	"multihop grid/random/reactive":                       "3fd67f0f27b8fcaba2d8508c41bcb90702b959ebe0131d7b299e2e22d82e601c",
	"multihop clique/trapdoor-arena":                      "686beec3e9d2cad8b63d1fcfc64848a464d0bcaf20084b1d7fee21832ec5899f",
	"multihop geometric/relay/stopwhen":                   "0a15602d46fe951d709058fe6b40d5700da20a8765bac51c192a7f0bb15b992c",
	"multihop grid/relay/stopwhen-last-round":             "98f05de395c1de14b05236f3e1de8ecca8fe9a0a044a669d0be2db26c4880fca",
	"multihop line/relay/run-to-max":                      "1bce69ca5e1d01c9bba43492bb97cc116d6284a8fb6dc7d688edc7d8ed17b50b",
	"multihop geometric/relay/hits-max":                   "cfd6ba926d27a767c98086456f9157b323d269f6d1c2e3c183b978b629a64803",
	"multihop geometric/relay/scan":                       "9d06cef4a0c07c79b57cc4f6f8e9089514e078cc6272aacf873d5f0336d71ba8",
	"multihop clique/samaritan-arena/no-batch":            "24f1765ec89b21e38d82bb542173817a41c9e87463d21f6c56aae595e2a02d01",
	"multihop waypoint/relay":                             "9135086b2a3a5240a6b6e3ceffe89e889871b07c6b5e9afdc4037ba825bbc24f",
	"multihop waypoint/relay/rebuild":                     "9135086b2a3a5240a6b6e3ceffe89e889871b07c6b5e9afdc4037ba825bbc24f",
	"multihop flip/random/reactive/observed":              "fca4fd14e857285f526281c736280438c7eac9e6e5608cc6ffac07c8d9457403",
	"multihop flip/random/reactive/observed/rebuild":      "fca4fd14e857285f526281c736280438c7eac9e6e5608cc6ffac07c8d9457403",
	"multihop flip/relay/scan":                            "fa86aece1f303a6353671d3ed9e1cb629e2eb7912561a79782403c278149e92a",
	"multihop partition/relay/staggered":                  "2ba5323c0d55e50060c534a2d3742b63557be48b46cb54e79680f2985716ffb5",
	"multihop compose/crash-relays/bursty":                "5a65fe039821307c63b70e0698b35dbbe1ebab1a8f4415aa135285b8d9de3784",
	"multihop waypoint/trapdoor-arena/out-of-order-wakes": "26ebd390584637f678330dbba6887b478bd5c1a803cf1629f468d10b6b80029f",
}
