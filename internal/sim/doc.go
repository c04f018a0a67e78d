// Package sim implements the disrupted radio network model of Section 2 of
// the paper as a discrete-event, round-synchronous simulator.
//
// The model: time divides into rounds. In each round every active node
// selects one of F frequencies and either transmits or listens. An
// interference adversary disrupts up to t < F frequencies per round,
// choosing based only on the protocol and the execution through the
// previous round. A listener on frequency f receives a message iff exactly
// one node transmitted on f and f is not disrupted; there is no collision
// detection, and transmitters learn nothing about the outcome of their
// transmission. Nodes are activated at schedule-determined rounds and run
// local round counters starting at activation.
//
// The package holds one round loop for two media. Run executes it on the
// single-hop clique above. RunGraph executes it on a multi-hop medium
// given by a graph, optionally changing between rounds: a listener hears
// only its neighbors, and two transmitting neighbors collide at it even if
// they cannot hear each other. internal/multihop wraps RunGraph with
// topologies and churn. The two media share activation, the adversary,
// agent stepping, delivery and sync bookkeeping; only reception
// classification differs. Runs are deterministic given the same Config.
//
// Config.Medium selects how the medium is resolved each round. The
// default frequency-indexed path — activation buckets, the sorted awake
// list, and per-frequency indexing through internal/medium — buckets
// broadcasters and listeners by frequency using only the awake nodes, so
// a clique round costs O(active) independent of F and N: the property
// that makes the -full sweep grids (N up to 16384, F up to 128)
// tractable. The legacy full-scan resolvers (MediumScan), one per medium,
// survive as differential-testing oracles; TestMediumDifferential and
// TestMultihopMediumDifferential prove the paths bit-identical in every
// observable over randomized schedules.
package sim
