// Package multihop extends the disrupted radio network model to multi-hop
// topologies, exploring the paper's closing open question ("how our
// results can be adapted to multiple hops").
//
// The medium generalizes Section 2 per receiver: a node u listening on
// frequency f receives a message iff exactly one of u's NEIGHBORS
// transmits on f and f is not disrupted. Non-neighbors neither deliver nor
// interfere; two transmitting neighbors collide at u even if they cannot
// hear each other (the hidden-terminal effect). The adversary jams up to t
// frequencies per round network-wide.
//
// Run is a thin wrapper over the single-hop simulator's round loop
// (sim.RunGraph): it validates the Config, applies topology churn between
// rounds, and reports a multi-hop Result. On the default path
// (Config.Medium zero value) each round costs O(active): one pass over
// the awake nodes builds per-frequency transmitter buckets, and a
// listener's reception is resolved by intersecting its frequency's bucket
// with its neighborhood — bucket-walk or neighbor-walk, whichever side is
// smaller. The complete graph (Clique) is exactly the single-hop model,
// which TestCliqueMatchesSingleHop pins against sim.Run. The legacy
// per-receiver full neighbor scan survives behind sim.MediumScan as the
// differential-testing oracle (TestMultihopMediumDifferential).
//
// Topologies cover lines, grids, cliques, and random geometric graphs
// (RandomGeometric, with RandomGeometricConnected retrying samples until
// connected); Diameter reports the hop-count diameter by BFS, the
// x-axis of the X7 convergence sweep, which climbs geometric graphs to
// N=4096 under the -full tier.
//
// On top of the engine, RelayNode extends the Trapdoor Protocol across
// hops: nodes compete locally exactly as in the single-hop protocol, and
// every node that adopts a numbering becomes a relay that re-announces it.
// Conflicting schemes from independent regional elections are merged by
// adopting the scheme with the larger identifier, so the whole connected
// component converges to one numbering; time grows with network diameter
// (measured in experiment X7). Scheme switches can step a node's round
// number — genuine multi-hop synchronization with the paper's full
// guarantees remains the open problem; see the package tests for what is
// and is not promised.
package multihop
