package multihop

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wsync/internal/medium"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// totalNodeRounds accumulates active node-rounds over every completed
// multi-hop run in this process; wexp samples TotalNodeRounds around each
// experiment to derive the node-rounds/s figure in the benchmark report.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of active node-rounds
// executed by completed multi-hop runs. Deterministic for a deterministic
// workload — it never depends on scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// Edge is an undirected edge between two node indices. Churn models emit
// deltas as normalized (A < B) edges; the engine's delta applier accepts
// either orientation.
type Edge struct {
	A, B int
}

// ChurnModel drives per-round topology evolution — the dynamic-topology
// hook the churn workloads (internal/churn) plug into. Round 1 runs on
// Config.Topology unchanged; for every later round r the engine asks the
// model for the edge deltas that transform the round r−1 graph into the
// round r graph, applies them to its private topology clone, and swaps
// the result into the medium resolver via SetGraph.
//
// The contract is strict so model bugs surface instead of skewing
// results: every added edge must be absent and every removed edge present
// at the time it is applied, or the engine panics. The returned slices
// are only read before the next Deltas call, so models may reuse them.
type ChurnModel interface {
	Deltas(r uint64) (add, remove []Edge)
}

// Config describes one multi-hop simulation. It reuses the single-hop
// model's agents, schedules, and adversaries; only medium resolution
// changes.
type Config struct {
	// F is the number of frequencies; T the adversary's per-round budget.
	F int
	T int
	// Seed drives all randomness.
	Seed uint64
	// Topology is the communication graph (its N is the node count).
	Topology *Topology
	// NewAgent constructs node i's protocol instance.
	NewAgent func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent
	// Schedule determines activation rounds; nil means all in round 1.
	Schedule sim.Schedule
	// Adversary jams frequencies network-wide; nil means none.
	Adversary sim.Adversary
	// MaxRounds bounds the run (0 = sim default).
	MaxRounds uint64
	// RunToMax disables the all-synced stop rule.
	RunToMax bool
	// StopWhen, if non-nil, ends the run when it returns true (checked
	// after every round, in addition to the default rule). Closures
	// typically inspect retained agent references.
	StopWhen func(round uint64) bool
	// Observers are notified after each round with the same
	// sim.RoundRecord the single-hop engine produces (Clear stays empty:
	// "clear broadcast" is a single-hop, shared-medium notion), so
	// observers like trace.Recorder work on churned multi-hop runs
	// unchanged. Record storage is reused between rounds — the
	// sim.Observer contract. With no observers the engine skips all
	// record building, preserving the zero-allocation round loop.
	Observers []sim.Observer
	// Medium selects the medium-resolution path, mirroring sim.Config.
	// The zero value (sim.MediumIndexed) is the frequency-indexed fast
	// path: per-round work is O(active), with each listener's reception
	// resolved by intersecting its frequency's transmitter bucket with
	// its neighborhood. sim.MediumScan forces the legacy per-receiver
	// full neighbor scan, retained as the differential-testing oracle
	// (TestMultihopMediumDifferential asserts the two paths produce
	// bit-identical Results).
	Medium sim.MediumPath
	// NoBatch disables cohort batch-stepping (sim.BatchAgent), forcing
	// every agent through the per-node Step fallback; results are
	// bit-identical either way. Mirrors sim.Config.NoBatch.
	NoBatch bool
	// Churn, if non-nil, evolves the topology between rounds. The engine
	// clones Config.Topology (the caller's graph is never mutated) and
	// applies the model's per-round deltas to the clone in place —
	// O(delta) per round and allocation-free at steady state — before
	// swapping it into the resolver with SetGraph.
	Churn ChurnModel
	// ChurnRebuild forces the delta-application oracle: instead of
	// patching sorted adjacency in place, each churned round rebuilds a
	// fresh Topology from the accumulated edge set and swaps it in whole.
	// O(E) per round and allocating — kept only for differential testing
	// (TestChurnDeltaMatchesRebuild pins the two paths byte-identical).
	ChurnRebuild bool
}

// Result reports a multi-hop run.
type Result struct {
	Rounds uint64
	// NodeRounds counts active node-rounds (Σ over rounds of awake
	// nodes) — the throughput denominator of BenchmarkMultihopThroughput.
	NodeRounds   uint64
	AllSynced    bool
	SyncRound    []uint64 // global round of first non-⊥ output per node
	Leaders      int
	Deliveries   uint64
	Collisions   uint64 // per (receiver, round): >= 2 transmitting neighbors on its frequency
	HitMaxRounds bool
	// ChurnRounds counts the rounds whose topology differed from the
	// previous round's; ChurnEdges totals the edge inserts and removes
	// applied. Both are zero without Config.Churn and identical across
	// the delta and rebuild paths (part of the differential contract).
	ChurnRounds uint64
	ChurnEdges  uint64
}

// churner applies a ChurnModel's per-round deltas to a private clone of
// the configured topology and hands the result to the engine.
type churner struct {
	model   ChurnModel
	rebuild bool
	topo    *Topology
	rounds  uint64
	edges   uint64

	// edgeSet is the rebuild oracle's edge set (normalized lo<<32|hi
	// keys), maintained only under Config.ChurnRebuild.
	edgeSet map[uint64]struct{}
}

func newChurner(c *Config) *churner {
	// Delta mutations must never reach the caller's topology, which
	// experiments share across trials.
	ch := &churner{model: c.Churn, rebuild: c.ChurnRebuild, topo: c.Topology.Clone()}
	if c.ChurnRebuild {
		ch.edgeSet = make(map[uint64]struct{}, ch.topo.EdgeCount())
		for _, ed := range ch.topo.AppendEdges(nil) {
			ch.edgeSet[edgeKey(ed.A, ed.B)] = struct{}{}
		}
	}
	return ch
}

// edgeKey normalizes an undirected edge into a comparable map key.
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// round advances the topology to round r and returns it, or nil when the
// graph is unchanged. It pulls the model's edge deltas and applies them,
// either in place (the delta fast path) or via the rebuild oracle. Round 1
// is the configured topology; churn starts at round 2.
func (ch *churner) round(r uint64) medium.Graph {
	if r < 2 {
		return nil
	}
	add, remove := ch.model.Deltas(r)
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}
	if ch.rebuild {
		ch.rebuildTopology(r, add, remove)
	} else {
		for _, ed := range remove {
			if !ch.topo.DeleteEdge(ed.A, ed.B) {
				panic(fmt.Sprintf("multihop: churn removed absent edge (%d, %d) in round %d", ed.A, ed.B, r))
			}
		}
		for _, ed := range add {
			if !ch.topo.InsertEdge(ed.A, ed.B) {
				panic(fmt.Sprintf("multihop: churn added present edge (%d, %d) in round %d", ed.A, ed.B, r))
			}
		}
	}
	ch.edges += uint64(len(add) + len(remove))
	ch.rounds++
	return ch.topo
}

// rebuildTopology is the oracle path: the deltas update a plain edge set,
// and a fresh Topology is constructed from scratch.
func (ch *churner) rebuildTopology(r uint64, add, remove []Edge) {
	for _, ed := range remove {
		key := edgeKey(ed.A, ed.B)
		if _, ok := ch.edgeSet[key]; !ok {
			panic(fmt.Sprintf("multihop: churn removed absent edge (%d, %d) in round %d", ed.A, ed.B, r))
		}
		delete(ch.edgeSet, key)
	}
	for _, ed := range add {
		key := edgeKey(ed.A, ed.B)
		if _, ok := ch.edgeSet[key]; ok {
			panic(fmt.Sprintf("multihop: churn added present edge (%d, %d) in round %d", ed.A, ed.B, r))
		}
		ch.edgeSet[key] = struct{}{}
	}
	fresh := newTopology(ch.topo.N())
	for key := range ch.edgeSet {
		fresh.addEdge(int(key>>32), int(key&(1<<32-1)))
	}
	ch.topo = fresh.finish()
}

// Run executes the simulation on the sim engine (sim.RunGraph). Semantics
// per round: every active node picks (frequency, transmit/listen); a
// listener u receives iff exactly one neighbor of u transmitted on u's
// frequency and the adversary did not jam it. Apart from the topology,
// sim.RunGraph validates c, including that the schedule covers exactly
// the topology's nodes.
func Run(c *Config) (*Result, error) {
	if c.Topology == nil {
		return nil, errors.New("multihop: topology required")
	}
	cfg := &sim.Config{
		F:              c.F,
		T:              c.T,
		Seed:           c.Seed,
		NewAgent:       c.NewAgent,
		Schedule:       c.Schedule,
		Adversary:      c.Adversary,
		MaxRounds:      c.MaxRounds,
		Observers:      c.Observers,
		RunToMaxRounds: c.RunToMax,
		Medium:         c.Medium,
		NoBatch:        c.NoBatch,
	}
	if cfg.Schedule == nil {
		cfg.Schedule = sim.Simultaneous{Count: c.Topology.N()}
	}
	if stop := c.StopWhen; stop != nil {
		cfg.StopWhen = func(h *sim.History) bool { return stop(h.Completed) }
	}
	topo := c.Topology
	var ch *churner
	var update func(uint64) medium.Graph
	if c.Churn != nil {
		ch = newChurner(c)
		topo, update = ch.topo, ch.round
	}
	sr, err := sim.RunGraph(cfg, topo, update)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Rounds:     sr.Stats.Rounds,
		NodeRounds: sr.Stats.NodeRounds,
		AllSynced:  sr.AllSynced,
		SyncRound:  sr.SyncRound,
		Leaders:    sr.Leaders,
		Deliveries: sr.Stats.Deliveries,
		Collisions: sr.Stats.Collisions,
	}
	if ch != nil {
		res.ChurnRounds, res.ChurnEdges = ch.rounds, ch.edges
	}
	maxRounds := c.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	res.HitMaxRounds = res.Rounds == maxRounds && !res.AllSynced
	totalNodeRounds.Add(res.NodeRounds)
	return res, nil
}
