// Package rendezvous hosts whitespace-style rendezvous games on the shared
// frequency-indexed medium resolver (internal/medium).
//
// The setting is the one of "Optimal whitespace synchronization strategies"
// (Azar et al.) and the energy-constrained regime of "Near-Optimal Radio
// Use For Wireless Network Synchronization" (Bradonjić–Kohler–Ostrovsky):
// k parties must meet on a common channel of a band [1..F] on which an
// adversary blocks channels, statically (a whitespace availability map) or
// per round (a churning jammer). A meeting is a clean radio event — one
// party transmits, another listens, same channel, no interference — so the
// game runs on the same medium resolution the synchronization engines use
// rather than on a private loop.
//
// The pieces:
//
//   - Strategy decides one party's (channel, transmit?) choice per local
//     round. The gallery covers uniform spreading at a chosen width
//     (Uniform, with the Azar-optimal width min(F, 2t) via OptimalWidth),
//     stay/ramble block strategies (StayRamble), deterministic hop
//     sequences (Oblivious), and per-party channel-availability relabeling
//     (Restricted). Strategies that can report their per-round marginal
//     distribution implement Profiled; product-form jammers need it.
//     lowerbound.StrategyFromRegular adapts any lowerbound.Regular
//     schedule, so the paper's protocols play unchanged.
//
//   - Jammer picks the blocked channels each round: Static sets, the
//     Theorem 4 greedy product jammer (Greedy), and Churn, which reuses
//     the whole internal/adversary gallery by replaying the previous
//     round's party actions to the adversary as history.
//
// The engine (Run) resolves every round on the medium's complete-graph
// path: the game graph is complete over the parties and the global jam
// carriers, so a blocked channel is one more transmission by a virtual
// jam node and a listener on it observes a collision or a bare carrier
// through the ordinary Resolver.Receive. Per-party masks — static
// Party.Mask sets and MaskModel churn — only ever put a carrier on their
// owner's channel, so they are a per-listener lookup over (party,
// channel) slots: a clean reception on a slot the listener has masked is
// discarded. No graph, adjacency swap or mask transmitter is involved.
//
// lowerbound.TwoNodeGame is this engine with two parties and the greedy
// jammer; the pre-engine loop survives in lowerbound's tests as the
// differential oracle (lowerbound's TestRendezvousMatchesTwoNodeGame pins
// bit-for-bit equality of meeting rounds).
package rendezvous
