// Package harness defines and runs the repository's experiments: one per
// paper artifact (every figure and theorem of the evaluation; `wexp -list`
// prints the index). Each experiment produces a Table whose rows compare
// measured behavior against the paper's bound, and the cmd/wexp tool
// renders them as text, markdown or CSV tables and as the wsync-bench/v1
// JSON report (documented in docs/BENCH_FORMAT.md).
//
// Experiments run at one of three grid tiers selected by Options: Quick
// shrinks every sweep to its smallest meaningful grid (CI smoke tests),
// the default reproduces the paper-scale tables, and Full expands the
// Theorem 10 / Theorem 18 and lower-bound sweeps to N = 16384, F = 128,
// and dense t grids, plus the widened X-series (X7 random geometric
// graphs to N = 4096 swept by diameter, the X8 adversary gallery at
// F = 128) — affordable because the shared frequency-indexed medium
// path (internal/medium, under both the sim and multihop engines) makes
// a round's cost independent of F and N. Each sweep point's Monte-Carlo
// trials are fanned across worker goroutines by runner.go, with results
// bit-identical at every parallelism level.
package harness
