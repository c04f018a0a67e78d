// Package samaritan implements the Good Samaritan Protocol of Section 7 of
// the paper: an optimistic, adaptive solution to the wireless
// synchronization problem.
//
// In good executions — all nodes activated in the same round, at most
// t' < t frequencies disrupted per round — every node synchronizes within
// O(t'·log³N) rounds; in all executions it synchronizes within
// O(F·log³N) rounds (Theorem 18).
//
// Structure (Figure 2): each node walks through lg F super-epochs; in
// super-epoch k nodes concentrate half their energy on the narrow band
// [1..2^k]. Each super-epoch consists of lg N + 2 epochs with the Trapdoor
// probability ramp 2^e/(2N) capped at 1/2. Contenders are not knocked out
// by other contenders: they are downgraded to good samaritans, whose job is
// to tell the surviving contender whether its broadcasts succeed. In the
// critical epoch (lg N + 1) a samaritan tallies successful non-special
// receptions from contenders activated in the same round; in the reporting
// epoch (lg N + 2) it broadcasts the tallies. A contender that learns it
// succeeded at least s(k)/2^(k+6) times becomes leader. Samaritans that
// hear other samaritans become passive. A node that exhausts all lg F
// super-epochs falls back to a modified Trapdoor Protocol (epochs at least
// four times the longest Good Samaritan epoch, timestamps honored again),
// interleaved coin-flip-wise with Good Samaritan special rounds so that an
// optimistic leader can still knock out fallback contenders.
//
// The paper states Figure 2's epoch length as Θ(2^k·log³N), which together
// with lg N+2 epochs per super-epoch would give a total of Θ(t'·log⁴N),
// contradicting Theorem 18's O(t'·log³N). We default to s(k) =
// CEpoch·2^k·lg²N, which makes totals match the theorem; EpochLogPower
// restores the literal Figure 2 exponent if desired.
package samaritan
