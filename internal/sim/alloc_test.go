package sim

import (
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// alloc_test.go pins the tentpole property of the engine's hot path: a
// steady-state round — after every node has activated and every reusable
// buffer has grown to its working size — performs zero heap allocations.
// The test is white-box (package sim) because the unit under test is
// engine.runRound, not the public Run wrapper; it cannot use package
// adversary (which imports sim), so it carries a local random jammer
// mirroring adversary.Random.

// allocJammer is adversary.Random re-implemented without the import
// cycle: a fresh uniform t-subset per round, drawn allocation-free via
// rng.SampleKInto into a reused scratch buffer.
type allocJammer struct {
	f, t    int
	r       *rng.Rand
	set     *freqset.Set
	scratch []int
}

func (a *allocJammer) Disrupt(uint64, *History) *freqset.Set {
	a.set.Clear()
	a.scratch = a.r.SampleKInto(a.f, a.t, a.scratch)
	for _, idx := range a.scratch {
		a.set.Add(idx + 1)
	}
	return a.set
}

// steadyAgent transmits with probability 1/2 on a random frequency and
// never syncs, so a driven round exercises the step, resolve, deliver,
// and output-recording paths indefinitely. Its message carries no slices
// — payload-bearing protocols own their buffers; the engine's obligation
// is only to not allocate on its own account.
type steadyAgent struct {
	r     *rng.Rand
	f     int
	heard uint64
	arena *steadyArena
}

func (a *steadyAgent) step(local uint64, m *msg.Message) (int32, bool) {
	f := int32(a.r.IntRange(1, a.f))
	if a.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
		return f, true
	}
	return f, false
}

func (a *steadyAgent) Step(local uint64) Action {
	var act Action
	f, tx := a.step(local, &act.Msg)
	act.Freq, act.Transmit = int(f), tx
	return act
}

func (a *steadyAgent) Deliver(msg.Message) { a.heard++ }
func (a *steadyAgent) Output() Output      { return Output{} }

func (a *steadyAgent) Cohort() any {
	if a.arena == nil || a.arena.solo {
		return nil
	}
	return a.arena
}

func (a *steadyAgent) StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	nodes := a.arena.nodes
	for j, id := range ids {
		f, tx := nodes[id].step(locals[j], &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
	}
}

// steadyArena mirrors the protocol arenas: slab construction with no
// per-activation allocation. With solo set, its agents opt out of batching
// (Cohort() nil) so the per-node fallback's activation path is pinned too.
type steadyArena struct {
	f     int
	solo  bool
	nodes []steadyAgent
}

func (a *steadyArena) NewAgent(id NodeID, activation uint64, r *rng.Rand) Agent {
	nd := &a.nodes[id]
	*nd = steadyAgent{r: r, f: a.f, arena: a}
	return nd
}

// allocSchedule activates node i in round s[i].
type allocSchedule []uint64

func (s allocSchedule) N() int                       { return len(s) }
func (s allocSchedule) ActivationRound(i int) uint64 { return s[i] }

// allocCompleteGraph is an explicit complete graph: the same medium as
// the clique, resolved per listener on the graph path. Swapping two of
// them in every round exercises SetGraph on a live engine.
type allocCompleteGraph struct {
	adj [][]int
}

func newAllocCompleteGraph(n int) *allocCompleteGraph {
	g := &allocCompleteGraph{adj: make([][]int, n)}
	for i := range g.adj {
		for j := 0; j < n; j++ {
			if j != i {
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	return g
}

func (g *allocCompleteGraph) N() int                { return len(g.adj) }
func (g *allocCompleteGraph) Neighbors(i int) []int { return g.adj[i] }

// TestSteadyStateAllocs drives the round loop past warm-up on both
// clique medium paths and requires exactly zero allocations per round.
// The churned variant runs on the graph path and has the per-round update
// swap between two complete graphs every round: per-round SetGraph swaps
// on a live engine are allocation-free once warm. The multi-hop pins in
// internal/multihop cover static and delta-churned topologies.
func TestSteadyStateAllocs(t *testing.T) {
	for _, path := range []struct {
		name  string
		m     MediumPath
		churn bool
	}{{name: "indexed", m: MediumIndexed}, {name: "scan", m: MediumScan},
		{name: "churned", m: MediumIndexed, churn: true}} {
		t.Run(path.name, func(t *testing.T) {
			const f, jam, n = 16, 4, 64
			cfg := &Config{
				F:    f,
				T:    jam,
				Seed: 7,
				NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
					return &steadyAgent{r: r, f: f}
				},
				Adversary: &allocJammer{
					f: f, t: jam, r: rng.New(99), set: freqset.New(f),
					scratch: make([]int, 0, jam),
				},
				RunToMaxRounds: true,
				Medium:         path.m,
			}
			cfg.Schedule = Simultaneous{Count: n}
			var graph medium.Graph
			var update func(uint64) medium.Graph
			if path.churn {
				even, odd := newAllocCompleteGraph(n), newAllocCompleteGraph(n)
				graph = even
				update = func(r uint64) medium.Graph {
					if r%2 == 0 {
						return even
					}
					return odd
				}
			}
			e, err := newEngine(cfg, graph, update)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: activate everyone and let every growable buffer
			// (active list, touched/listener/pending lists, the round
			// record) reach its working capacity.
			r := uint64(0)
			for ; r < 64; r++ {
				e.runRound(r + 1)
			}
			allocs := testing.AllocsPerRun(100, func() {
				r++
				e.runRound(r)
			})
			if allocs != 0 {
				t.Fatalf("steady-state round allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestActivationRoundAllocs extends the zero-alloc contract to activation
// rounds: with arena-built agents (rng states pre-split into the engine's
// slab, construction into arena slots), a round that wakes new nodes
// allocates nothing either. Warm-up activates the bulk of the population;
// four stragglers then activate inside the measured window, exercising
// Wake, arena construction, and cohort insertion (batch variant) or the
// sorted solo list (solo variant) under AllocsPerRun.
func TestActivationRoundAllocs(t *testing.T) {
	const f, jam, n = 16, 4, 64
	for _, tc := range []struct {
		name string
		solo bool
	}{{name: "batch"}, {name: "solo", solo: true}} {
		t.Run(tc.name, func(t *testing.T) {
			sched := make(allocSchedule, n)
			for i := range sched {
				sched[i] = 1
			}
			// Stragglers activate at rounds 72..102, inside the window.
			sched[n-4], sched[n-3], sched[n-2], sched[n-1] = 72, 82, 92, 102
			arena := &steadyArena{f: f, solo: tc.solo, nodes: make([]steadyAgent, n)}
			cfg := &Config{
				F:        f,
				T:        jam,
				Seed:     7,
				NewAgent: arena.NewAgent,
				Adversary: &allocJammer{
					f: f, t: jam, r: rng.New(99), set: freqset.New(f),
					scratch: make([]int, 0, jam),
				},
				RunToMaxRounds: true,
				Schedule:       sched,
			}
			e, err := newEngine(cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := uint64(0)
			for ; r < 64; r++ {
				e.runRound(r + 1)
			}
			allocs := testing.AllocsPerRun(100, func() {
				r++
				e.runRound(r)
			})
			if allocs != 0 {
				t.Fatalf("activation-inclusive round allocates %.1f objects, want 0", allocs)
			}
			if e.activatedCount != n {
				t.Fatalf("only %d of %d nodes activated; the window missed the stragglers", e.activatedCount, n)
			}
		})
	}
}
