package rendezvous

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/rng"
)

// totalNodeRounds accumulates awake party-rounds over every completed game
// in this process; wexp samples TotalNodeRounds around each experiment to
// derive the node-rounds/s figure in the benchmark report.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of awake party-rounds
// executed by completed games. Deterministic for a deterministic workload —
// it never depends on scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// Party configures one participant of the game.
type Party struct {
	// Strategy decides the party's per-round behavior. Stateful strategies
	// must not be shared between parties.
	Strategy Strategy
	// Wake is the global round the party enters the game; 0 and 1 both
	// mean it plays from round 1.
	Wake uint64
	// Head offsets the party's local clock: the number of rounds it had
	// already been playing elsewhere when the game starts (Theorem 4's
	// activation offset). Local round at global round g is
	// Head + (g − Wake + 1).
	Head uint64
	// Mask statically blocks channels for this party alone: a reception by
	// this party on a masked channel is jammed, while other parties'
	// receptions are untouched. Run looks the listener's (party, channel)
	// slot up after resolving the reception; duplicates are harmless.
	Mask []int
}

// MaskModel evolves per-party channel masks between rounds — the
// rendezvous-side dynamic-topology hook. MaskDeltas is called once per
// round from round 2 on (round 1 plays on the initial, fully unblocked
// mask state) and returns the (party, channel) pairs to block and
// unblock this round. Blocking an already-blocked pair, unblocking an
// unblocked one, or naming a party or channel out of range fails the run.
// Returned slices are only read before the next call, so models may
// reuse their buffers.
type MaskModel interface {
	MaskDeltas(r uint64) (block, unblock [][2]int)
}

// Config configures a rendezvous game.
type Config struct {
	// F is the band size (channels 1..F).
	F int
	// Parties lists the k >= 2 participants.
	Parties []Party
	// Jammer blocks channels globally each round; nil means none.
	Jammer Jammer
	// Masks churns per-party channel masks between rounds; nil means the
	// static Party.Mask sets are the whole story. Dynamic masks toggle one
	// flag per (party, channel) slot, which Run consults, together with
	// the static mask, for each listener's reception.
	Masks MaskModel
	// MaxRounds bounds the game length.
	MaxRounds uint64
	// Seed drives all party randomness; party p's stream is
	// rng.New(Seed).Split(p+1), matching the historical two-node game.
	Seed uint64
}

// Result reports one game.
type Result struct {
	// FirstMeet is the global round of the first meeting — a clean
	// reception of one party's transmission by another party — or 0 if
	// none happened within MaxRounds.
	FirstMeet uint64
	// AllMet is the global round at which the meeting graph first
	// connected all k parties (pairwise meetings merge components), or 0.
	// For k = 2 it equals FirstMeet.
	AllMet uint64
	// Meetings counts every clean pairwise reception, including repeats.
	Meetings uint64
	// Rounds is the number of rounds simulated (the game stops at AllMet).
	Rounds uint64
	// NodeRounds counts awake party-rounds, the engine's throughput unit.
	NodeRounds uint64
}

// Run plays the game on the resolver's complete-graph path. The k parties
// occupy node indices 0..k−1 of the medium, and a globally blocked
// channel f is a transmission by the virtual jam node k+f−1, so a
// listener on it hears a collision or a bare carrier. Per-party masks are
// a lookup: a clean reception by party v on channel f is discarded when
// v's static or dynamic mask blocks f.
func Run(cfg *Config) (*Result, error) {
	k := len(cfg.Parties)
	if cfg.F < 1 {
		return nil, fmt.Errorf("rendezvous: F = %d, need >= 1", cfg.F)
	}
	if k < 2 {
		return nil, fmt.Errorf("rendezvous: %d parties, need >= 2", k)
	}
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("rendezvous: MaxRounds = %d, need >= 1", cfg.MaxRounds)
	}
	for p, pt := range cfg.Parties {
		if pt.Strategy == nil {
			return nil, fmt.Errorf("rendezvous: party %d has no strategy", p)
		}
		for _, f := range pt.Mask {
			if f < 1 || f > cfg.F {
				return nil, fmt.Errorf("rendezvous: party %d masks channel %d outside [1..%d]", p, f, cfg.F)
			}
		}
	}

	res := medium.NewResolver(cfg.F, k+cfg.F, nil)
	// Masks are flags over (party, channel) slots p·F+f−1: static from
	// Party.Mask, dynamic from the MaskModel's deltas.
	static := make([]bool, k*cfg.F)
	for p, pt := range cfg.Parties {
		for _, f := range pt.Mask {
			static[p*cfg.F+f-1] = true
		}
	}
	dynBlocked := make([]bool, k*cfg.F)

	wakes := make([]uint64, k)
	strategies := make([]Strategy, k)
	rands := make([]*rng.Rand, k)
	root := rng.New(cfg.Seed)
	for p, pt := range cfg.Parties {
		wakes[p] = pt.Wake
		if wakes[p] == 0 {
			wakes[p] = 1
		}
		strategies[p] = pt.Strategy
		rands[p] = root.Split(uint64(p) + 1)
	}
	act := medium.NewActivation(wakes)

	// Union-find over parties; the game ends when one component remains.
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := k

	rd := &Round{F: cfg.F, Locals: make([]uint64, k), Strategies: strategies}
	cur := make([]Action, k)
	prev := make([]Action, k)
	out := &Result{}
	for g := uint64(1); g <= cfg.MaxRounds; g++ {
		if cfg.Masks != nil && g >= 2 {
			block, unblock := cfg.Masks.MaskDeltas(g)
			if err := applyMaskDeltas(dynBlocked, block, unblock, k, cfg.F, g); err != nil {
				return nil, err
			}
		}
		act.Wake(g)
		rd.Global = g
		for p := 0; p < k; p++ {
			if wakes[p] <= g {
				rd.Locals[p] = cfg.Parties[p].Head + (g - wakes[p] + 1)
			} else {
				rd.Locals[p] = 0
			}
		}
		var blocked *freqset.Set
		if cfg.Jammer != nil {
			blocked = cfg.Jammer.Block(rd)
		}

		for _, p := range act.Active() {
			f, tx := strategies[p].Pick(rd.Locals[p], rands[p])
			if f < 1 || f > cfg.F {
				return nil, fmt.Errorf("rendezvous: party %d picked channel %d outside [1..%d] in round %d", p, f, cfg.F, g)
			}
			cur[p] = Action{Freq: f, Transmit: tx}
			if tx {
				res.Transmit(p, f)
			} else {
				res.Listen(p)
			}
			out.NodeRounds++
		}
		if blocked != nil {
			for f := 1; f <= cfg.F; f++ {
				if blocked.Contains(f) {
					res.Transmit(k+f-1, f)
				}
			}
		}

		for _, v := range res.Listeners() {
			f := cur[v].Freq
			from, count := res.Receive(v, f)
			if count != 1 || from >= k {
				continue // silence, collision, or a bare jam carrier
			}
			if slot := v*cfg.F + f - 1; static[slot] || dynBlocked[slot] {
				continue // masked for this listener
			}
			out.Meetings++
			if out.FirstMeet == 0 {
				out.FirstMeet = g
			}
			if rv, rf := find(v), find(from); rv != rf {
				parent[rv] = rf
				if comps--; comps == 1 {
					out.AllMet = g
				}
			}
		}
		res.Reset()
		out.Rounds = g
		if out.AllMet != 0 {
			break
		}
		copy(prev, cur)
		rd.Last = prev
	}
	totalNodeRounds.Add(out.NodeRounds)
	return out, nil
}

// applyMaskDeltas applies one round of mask churn to the dynamic
// (party, channel) slots. Unblocks apply first so a model may retire and
// re-impose the same slot across rounds.
func applyMaskDeltas(dynBlocked []bool, block, unblock [][2]int, k, f int, g uint64) error {
	for _, pc := range unblock {
		idx, err := maskSlot(pc, k, f, g)
		if err != nil {
			return err
		}
		if !dynBlocked[idx] {
			return fmt.Errorf("rendezvous: round %d unblocks channel %d for party %d, which is not blocked", g, pc[1], pc[0])
		}
		dynBlocked[idx] = false
	}
	for _, pc := range block {
		idx, err := maskSlot(pc, k, f, g)
		if err != nil {
			return err
		}
		if dynBlocked[idx] {
			return fmt.Errorf("rendezvous: round %d blocks channel %d for party %d twice", g, pc[1], pc[0])
		}
		dynBlocked[idx] = true
	}
	return nil
}

// maskSlot validates a (party, channel) pair and returns its slot.
func maskSlot(pc [2]int, k, f int, g uint64) (int, error) {
	if pc[0] < 0 || pc[0] >= k {
		return 0, fmt.Errorf("rendezvous: round %d mask delta names party %d outside [0..%d]", g, pc[0], k-1)
	}
	if pc[1] < 1 || pc[1] > f {
		return 0, fmt.Errorf("rendezvous: round %d mask delta names channel %d outside [1..%d]", g, pc[1], f)
	}
	return pc[0]*f + pc[1] - 1, nil
}
