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
// The engine (Run) expresses all blocking through the medium.Graph
// interface instead of special-casing it: blocked channels become
// transmissions by virtual jammer nodes, and per-party masks become graph
// adjacency — a mask node neighbors only the party it blocks, a global
// jammer node neighbors every party. The graph is a multihop.Topology. A
// listener on a blocked channel then observes a collision through the
// ordinary Resolver.Receive intersection, and the rendezvous medium is
// literally "one more Graph" over the resolver, not a new engine.
//
// lowerbound.TwoNodeGame is this engine with two parties and the greedy
// jammer; the pre-engine loop survives in lowerbound's tests as the
// differential oracle (lowerbound's TestRendezvousMatchesTwoNodeGame pins
// bit-for-bit equality of meeting rounds).
package rendezvous
