package multihop

import (
	"runtime"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// allocAgent transmits with probability 1/2 on a random frequency and
// never syncs, so driven rounds exercise the step, resolve, relay-deliver,
// and sync-check paths indefinitely without allocating on its own account.
type allocAgent struct {
	r     *rng.Rand
	f     int
	heard uint64
	arena *allocArena
}

func (a *allocAgent) step(local uint64, m *msg.Message) (int32, bool) {
	f := int32(a.r.IntRange(1, a.f))
	if a.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
		return f, true
	}
	return f, false
}

func (a *allocAgent) Step(local uint64) sim.Action {
	var act sim.Action
	f, tx := a.step(local, &act.Msg)
	act.Freq, act.Transmit = int(f), tx
	return act
}

func (a *allocAgent) Deliver(msg.Message) { a.heard++ }
func (a *allocAgent) Output() sim.Output  { return sim.Output{} }

func (a *allocAgent) Cohort() any {
	if a.arena == nil {
		return nil
	}
	return a.arena
}

func (a *allocAgent) StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	nodes := a.arena.nodes
	for j, id := range ids {
		f, tx := nodes[id].step(locals[j], &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
	}
}

// allocArena mirrors the protocol arenas: slab construction with no
// per-activation allocation.
type allocArena struct {
	f     int
	nodes []allocAgent
}

func (a *allocArena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	nd := &a.nodes[id]
	*nd = allocAgent{r: r, f: a.f, arena: a}
	return nd
}

// allocSchedule activates node i in round s[i].
type allocSchedule []uint64

func (s allocSchedule) N() int                       { return len(s) }
func (s allocSchedule) ActivationRound(i int) uint64 { return s[i] }

// allocFlip is churn.Flip re-implemented without the import cycle
// (internal/churn imports this package): every base edge independently
// toggles presence each round, deltas emitted into reused buffers. Degree
// never exceeds the base graph's, so once the engine's adjacency slices
// warm up to base capacity a churned round patches them in place.
type allocFlip struct {
	edges       []Edge
	on          []bool
	rate        float64
	r           *rng.Rand
	add, remove []Edge
}

func newAllocFlip(base *Topology, rate float64, seed uint64) *allocFlip {
	edges := base.AppendEdges(nil)
	on := make([]bool, len(edges))
	for i := range on {
		on[i] = true
	}
	return &allocFlip{edges: edges, on: on, rate: rate, r: rng.New(seed)}
}

func (m *allocFlip) Deltas(uint64) (add, remove []Edge) {
	m.add, m.remove = m.add[:0], m.remove[:0]
	for i, e := range m.edges {
		if !m.r.Bernoulli(m.rate) {
			continue
		}
		if m.on[i] {
			m.remove = append(m.remove, e)
		} else {
			m.add = append(m.add, e)
		}
		m.on[i] = !m.on[i]
	}
	return m.add, m.remove
}

// allocProbe wraps a run's adversary and counts the heap allocations the
// live run makes between its Disrupt calls of rounds from and to: the
// work of rounds from..to-1, measured through the public Run, with the
// churn applier and every engine phase in the window.
type allocProbe struct {
	sim.Adversary
	from, to uint64
	ms       runtime.MemStats
	start    uint64
	allocs   uint64
}

func (p *allocProbe) Disrupt(r uint64, h *sim.History) *freqset.Set {
	switch r {
	case p.from:
		runtime.ReadMemStats(&p.ms)
		p.start = p.ms.Mallocs
	case p.to:
		runtime.ReadMemStats(&p.ms)
		p.allocs = p.ms.Mallocs - p.start
	}
	return p.Adversary.Disrupt(r, h)
}

// roundAllocs runs cfg for 164 rounds and returns the allocations per
// round over rounds 65..164, rounded down as testing.AllocsPerRun does.
// The 64 warm-up rounds let every growable buffer reach its working
// capacity; after that only a per-frequency transmitter bucket growing to
// a new high-water mark allocates, a few times per thousand rounds.
func roundAllocs(t *testing.T, cfg *Config) (uint64, *Result) {
	t.Helper()
	probe := &allocProbe{Adversary: cfg.Adversary, from: 65, to: 165}
	cfg.Adversary = probe
	cfg.MaxRounds = 165
	cfg.RunToMax = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return probe.allocs / (probe.to - probe.from), res
}

// TestSteadyStateAllocs drives multi-hop runs past warm-up on both medium
// paths and requires zero allocations per round — the multi-hop
// half of the zero-alloc hot-path contract (the clique half lives in
// internal/sim). The churned variant also applies in-place edge deltas
// every round.
func TestSteadyStateAllocs(t *testing.T) {
	for _, path := range []struct {
		name  string
		m     sim.MediumPath
		churn bool
	}{{name: "indexed", m: sim.MediumIndexed}, {name: "scan", m: sim.MediumScan},
		{name: "churned", m: sim.MediumIndexed, churn: true}} {
		t.Run(path.name, func(t *testing.T) {
			const f, jam = 16, 4
			cfg := &Config{
				F:        f,
				T:        jam,
				Seed:     7,
				Topology: Grid(8, 8),
				NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
					return &allocAgent{r: r, f: f}
				},
				Adversary: adversary.NewRandom(f, jam, 99),
				Medium:    path.m,
			}
			if path.churn {
				// A churned round must also be allocation-free: the delta
				// mutations patch warmed adjacency in place and the
				// SetGraph swap reuses every resolver buffer.
				cfg.Churn = newAllocFlip(cfg.Topology, 0.2, 123)
			}
			allocs, res := roundAllocs(t, cfg)
			if allocs != 0 {
				t.Fatalf("steady-state round allocates %d objects, want 0", allocs)
			}
			if path.churn && res.ChurnRounds == 0 {
				t.Fatal("churned subtest never applied a delta; the alloc check ran vacuously")
			}
		})
	}
}

// TestActivationRoundAllocs extends the zero-alloc contract to activation
// rounds on a graph: with arena-built agents, rounds that wake new nodes
// (Wake, arena construction, and cohort insertion or the sorted solo
// list) allocate nothing. Four stragglers activate inside the measured
// window.
func TestActivationRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		solo bool
	}{{name: "batch"}, {name: "solo", solo: true}} {
		t.Run(tc.name, func(t *testing.T) {
			const f, jam = 16, 4
			topo := Grid(8, 8)
			n := topo.N()
			sched := make(allocSchedule, n)
			for i := range sched {
				sched[i] = 1
			}
			// Stragglers activate at rounds 72..102, inside the window.
			sched[n-4], sched[n-3], sched[n-2], sched[n-1] = 72, 82, 92, 102
			arena := &allocArena{f: f, nodes: make([]allocAgent, n)}
			cfg := &Config{
				F:         f,
				T:         jam,
				Seed:      7,
				Topology:  topo,
				NewAgent:  arena.NewAgent,
				Schedule:  sched,
				Adversary: adversary.NewRandom(f, jam, 99),
				NoBatch:   tc.solo,
			}
			allocs, res := roundAllocs(t, cfg)
			if allocs != 0 {
				t.Fatalf("activation-inclusive round allocates %d objects, want 0", allocs)
			}
			var want uint64
			for _, a := range sched {
				want += res.Rounds - a + 1
			}
			if res.NodeRounds != want {
				t.Fatalf("%d node-rounds, want %d; the window missed the stragglers", res.NodeRounds, want)
			}
		})
	}
}
