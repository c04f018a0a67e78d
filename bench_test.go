// Benchmarks: one per paper artifact (`go run ./cmd/wexp -list` prints the
// experiment index). Each benchmark exercises the code path that regenerates the
// corresponding table or figure and reports the headline quantity (usually
// synchronization rounds) as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a quick reproduction pass. The full sweeps with statistics
// live in cmd/wexp.
package wsync

import (
	"runtime"
	"sync/atomic"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/harness"
	"wsync/internal/lowerbound"
	"wsync/internal/multihop"
	"wsync/internal/props"
	"wsync/internal/replog"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
	"wsync/internal/unslotted"
)

// reportRounds attaches the measured synchronization time to the bench.
func reportRounds(b *testing.B, total uint64, n int) {
	b.Helper()
	if n > 0 {
		b.ReportMetric(float64(total)/float64(n), "rounds/run")
	}
}

// BenchmarkF1TrapdoorSchedule regenerates the Figure 1 epoch table.
func BenchmarkF1TrapdoorSchedule(b *testing.B) {
	p := trapdoor.Params{N: 64, F: 8, T: 2}
	for i := 0; i < b.N; i++ {
		rows := p.Schedule()
		if len(rows) != p.LgN() {
			b.Fatal("bad schedule")
		}
	}
}

// BenchmarkF2SamaritanSchedule regenerates the Figure 2 structure table.
func BenchmarkF2SamaritanSchedule(b *testing.B) {
	p := samaritan.Params{N: 16, F: 8, T: 2}
	for i := 0; i < b.N; i++ {
		rows := p.Schedule()
		if len(rows) != p.LgF()*p.EpochsPerSuper() {
			b.Fatal("bad schedule")
		}
	}
}

// BenchmarkL2BallsInBins runs the Lemma 2 process.
func BenchmarkL2BallsInBins(b *testing.B) {
	probs := lowerbound.Lemma2Distribution(3, 0.5, 1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		lowerbound.NoSingleton(8, probs, r)
	}
}

// BenchmarkT1RegularLowerBound measures time-to-first-clear-broadcast for
// the Theorem 1 setting.
func BenchmarkT1RegularLowerBound(b *testing.B) {
	const n, f, t = 256, 8, 2
	reg := lowerbound.NewTrapdoorRegular(trapdoor.Params{N: n, F: f, T: t})
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.FirstClear(reg, n, f, t, 1<<21, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		total += res.Rounds
	}
	reportRounds(b, total, b.N)
}

// BenchmarkT4TwoNodeGame plays the Theorem 4 rendezvous game against the
// greedy adversary.
func BenchmarkT4TwoNodeGame(b *testing.B) {
	reg := lowerbound.UniformRegular{M: 4, P: 0.5}
	var total uint64
	for i := 0; i < b.N; i++ {
		res := lowerbound.TwoNodeGame(reg, reg, 8, 2, 0, 1<<20, uint64(i))
		total += res.Rounds
	}
	reportRounds(b, total, b.N)
}

// trapdoorBench runs one Trapdoor simulation.
func trapdoorBench(b *testing.B, p trapdoor.Params, n int, adv func(seed uint64) sim.Adversary) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return trapdoor.MustNew(p, r)
			},
			Schedule:  sim.Simultaneous{Count: n},
			Adversary: adv(uint64(i)),
			MaxRounds: 1 << 22,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSynced {
			b.Fatal("did not synchronize")
		}
		total += res.MaxSyncLocal
	}
	reportRounds(b, total, b.N)
}

// BenchmarkT10TrapdoorVsN sweeps the participant bound (Theorem 10,
// log²N shape).
func BenchmarkT10TrapdoorVsN(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		n := n
		b.Run(benchName("N", n), func(b *testing.B) {
			trapdoorBench(b, trapdoor.Params{N: n, F: 8, T: 2}, 8,
				func(uint64) sim.Adversary { return adversary.NewPrefix(8, 2) })
		})
	}
}

// BenchmarkT10TrapdoorVsT sweeps the disruption budget (Theorem 10,
// F/(F−t) blow-up).
func BenchmarkT10TrapdoorVsT(b *testing.B) {
	for _, t := range []int{1, 3, 5, 7} {
		t := t
		b.Run(benchName("t", t), func(b *testing.B) {
			trapdoorBench(b, trapdoor.Params{N: 64, F: 8, T: t}, 8,
				func(uint64) sim.Adversary { return adversary.NewPrefix(8, t) })
		})
	}
}

// BenchmarkT10Agreement runs the leader-uniqueness check (Theorem 10,
// agreement w.h.p.).
func BenchmarkT10Agreement(b *testing.B) {
	p := trapdoor.Params{N: 64, F: 8, T: 2}
	bad := 0
	for i := 0; i < b.N; i++ {
		check := props.NewChecker(8)
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return trapdoor.MustNew(p, r)
			},
			Schedule:  sim.Simultaneous{Count: 8},
			Adversary: adversary.NewPrefix(8, 2),
			MaxRounds: 1 << 21,
			Observers: []sim.Observer{check},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 || !check.OK() {
			bad++
		}
	}
	b.ReportMetric(float64(bad)/float64(b.N), "failures/run")
}

// BenchmarkL9BroadcastWeight probes the broadcast weight W(r) (Lemma 9).
func BenchmarkL9BroadcastWeight(b *testing.B) {
	p := trapdoor.Params{N: 64, F: 8, T: 2}
	maxW := 0.0
	for i := 0; i < b.N; i++ {
		w := &harness.WeightObserver{}
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return trapdoor.MustNew(p, r)
			},
			Schedule:     sim.Simultaneous{Count: 64},
			Adversary:    adversary.NewPrefix(8, 2),
			MaxRounds:    1 << 21,
			Observers:    []sim.Observer{w},
			ProbeWeights: true,
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
		if w.Max > maxW {
			maxW = w.Max
		}
	}
	b.ReportMetric(maxW, "maxW")
	b.ReportMetric(6*float64(p.FPrime()), "bound6F'")
}

// samaritanBench runs one Good Samaritan simulation.
func samaritanBench(b *testing.B, p samaritan.Params, n int, sched sim.Schedule,
	adv func(seed uint64) sim.Adversary) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return samaritan.MustNew(p, r)
			},
			Schedule:  sched,
			Adversary: adv(uint64(i)),
			MaxRounds: 1 << 23,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSynced {
			b.Fatal("did not synchronize")
		}
		total += res.MaxSyncLocal
	}
	reportRounds(b, total, b.N)
}

// BenchmarkT18SamaritanVsTprime sweeps the actual disruption t' in good
// executions (Theorem 18, adaptive bound).
func BenchmarkT18SamaritanVsTprime(b *testing.B) {
	p := samaritan.Params{N: 16, F: 16, T: 8}
	for _, tp := range []int{1, 2, 4} {
		tp := tp
		b.Run(benchName("tprime", tp), func(b *testing.B) {
			samaritanBench(b, p, 4, sim.Simultaneous{Count: 4},
				func(uint64) sim.Adversary { return adversary.NewLowPrefix(16, tp) })
		})
	}
}

// BenchmarkT18SamaritanFallback forces the fallback path (Theorem 18,
// general bound).
func BenchmarkT18SamaritanFallback(b *testing.B) {
	p := samaritan.Params{N: 16, F: 4, T: 2}
	samaritanBench(b, p, 4, sim.Staggered{Count: 4, Gap: p.EpochLen(1)},
		func(seed uint64) sim.Adversary { return adversary.NewRandom(4, 2, seed+99) })
}

// BenchmarkX1Crossover runs both protocols in the calm-band setting where
// the Good Samaritan wins.
func BenchmarkX1Crossover(b *testing.B) {
	b.Run("trapdoor", func(b *testing.B) {
		trapdoorBench(b, trapdoor.Params{N: 16, F: 64, T: 32}, 2,
			func(uint64) sim.Adversary { return adversary.NewLowPrefix(64, 1) })
	})
	b.Run("samaritan", func(b *testing.B) {
		samaritanBench(b, samaritan.Params{N: 16, F: 64, T: 32}, 2,
			sim.Simultaneous{Count: 2},
			func(uint64) sim.Adversary { return adversary.NewLowPrefix(64, 1) })
	})
}

// BenchmarkX2Baselines compares against the baselines under the X2
// environment.
func BenchmarkX2Baselines(b *testing.B) {
	mk := map[string]func(r *rng.Rand) sim.Agent{
		"trapdoor":   func(r *rng.Rand) sim.Agent { return trapdoor.MustNew(trapdoor.Params{N: 64, F: 8, T: 2}, r) },
		"wakeup":     func(r *rng.Rand) sim.Agent { return baseline.NewWakeup(64, 8, r) },
		"roundrobin": func(r *rng.Rand) sim.Agent { return baseline.NewRoundRobin(64, 8, r) },
	}
	for name, factory := range mk {
		factory := factory
		b.Run(name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				cfg := &sim.Config{
					F:    8,
					T:    2,
					Seed: uint64(i),
					NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
						return factory(r)
					},
					Schedule:  sim.Simultaneous{Count: 8},
					Adversary: adversary.NewPrefix(8, 2),
					MaxRounds: 1 << 20,
				}
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Stats.Rounds
			}
			reportRounds(b, total, b.N)
		})
	}
}

// BenchmarkX3CrashRecovery exercises the fault-tolerant Trapdoor variant
// with a crashing leader.
func BenchmarkX3CrashRecovery(b *testing.B) {
	p := trapdoor.Params{N: 16, F: 8, T: 2, FaultTolerant: true, CommitThreshold: 2}
	crashAt := 3 * p.TotalRounds()
	maxRounds := crashAt + 40*p.EffectiveLeaderTimeout() + 4*p.TotalRounds()
	recovered := 0
	for i := 0; i < b.N; i++ {
		var survivors []*trapdoor.Node
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n := trapdoor.MustNew(p, r)
				if id == 0 {
					return &adversary.CrashAgent{Inner: n, CrashAt: crashAt}
				}
				survivors = append(survivors, n)
				return n
			},
			Schedule:       sim.Staggered{Count: 4, Gap: 2},
			Adversary:      adversary.NewPrefix(8, 2),
			MaxRounds:      maxRounds,
			RunToMaxRounds: true,
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
		for _, n := range survivors {
			if n.IsLeader() {
				recovered++
				break
			}
		}
	}
	b.ReportMetric(float64(recovered)/float64(b.N), "recovered/run")
}

// BenchmarkX4Ablations runs the no-knockout ablation (agreement collapses).
func BenchmarkX4Ablations(b *testing.B) {
	p := trapdoor.Params{N: 64, F: 8, T: 2, AblationNoKnockout: true}
	leaders := 0
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return trapdoor.MustNew(p, r)
			},
			Schedule:  sim.Simultaneous{Count: 8},
			Adversary: adversary.NewPrefix(8, 2),
			MaxRounds: 1 << 20,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		leaders += res.Leaders
	}
	b.ReportMetric(float64(leaders)/float64(b.N), "leaders/run")
}

// BenchmarkX5Unslotted runs the phase-shifted transformation (Section 8).
func BenchmarkX5Unslotted(b *testing.B) {
	p := trapdoor.Params{N: 16, F: 6, T: 2}
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := unslotted.Run(&unslotted.Config{
			F:    p.F,
			T:    p.T,
			Seed: uint64(i),
			N:    4,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return trapdoor.MustNew(p, r)
			},
			Phase:     unslotted.RandomPhases(4, uint64(i)+9),
			Adversary: adversary.NewPrefix(p.F, p.T),
			MaxRounds: 1 << 21,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSynced {
			b.Fatal("did not synchronize")
		}
		total += res.Rounds
	}
	reportRounds(b, total, b.N)
}

// BenchmarkX6ReplicatedLog replicates a command sequence over synchronized
// rounds (Section 8).
func BenchmarkX6ReplicatedLog(b *testing.B) {
	const members, f = 4, 8
	commands := []uint64{1, 2, 3, 4, 5}
	p := trapdoor.Params{N: 16, F: f, T: 2}
	var total uint64
	for i := 0; i < b.N; i++ {
		nodes := make([]*replog.Node, members)
		cfg := &sim.Config{
			F:    f,
			T:    2,
			Seed: uint64(i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n, err := replog.New(replog.Config{
					Members: members, F: f, Commands: commands, Settle: 200,
				}, trapdoor.MustNew(p, r), r)
				if err != nil {
					b.Fatal(err)
				}
				nodes[id] = n
				return n
			},
			Schedule:       sim.Simultaneous{Count: members},
			Adversary:      adversary.NewRandom(f, 2, uint64(i)),
			MaxRounds:      200000,
			RunToMaxRounds: true,
			StopWhen: func(h *sim.History) bool {
				for _, n := range nodes {
					if n == nil || n.CommitIndex() < len(commands) {
						return false
					}
				}
				return true
			},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Stats.Rounds
	}
	reportRounds(b, total, b.N)
}

// BenchmarkX7Multihop runs relay synchronization on a line network
// (Section 8).
func BenchmarkX7Multihop(b *testing.B) {
	p := trapdoor.Params{N: 8, F: 6, T: 2}
	topo := multihop.Line(8)
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := multihop.Run(&multihop.Config{
			F: p.F, T: p.T,
			Seed:     uint64(i),
			Topology: topo,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return multihop.MustNewRelay(p, r)
			},
			Adversary: adversary.NewRandom(p.F, p.T, uint64(i)+3),
			MaxRounds: 4_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSynced {
			b.Fatal("did not synchronize")
		}
		total += res.Rounds
	}
	reportRounds(b, total, b.N)
}

// BenchmarkMultihopThroughput measures the multi-hop engine in node-rounds
// per second over the X7 topology shapes, each workload once under the
// frequency-indexed medium path (the Config.Medium zero value) and once
// under the legacy per-receiver neighbor scan, so the indexed/scan ratio
// per shape IS the speedup. The schedule trickles the nodes in (the -full
// sweep tier's shape): the scan path walks all N schedule slots and every
// listener's full neighborhood each round, while the indexed path touches
// only awake nodes and intersects frequency buckets with neighborhoods —
// the acceptance bar is a measurable node-rounds/s win on RGG at N ≥ 1024.
func BenchmarkMultihopThroughput(b *testing.B) {
	p := trapdoor.Params{N: 64, F: 24, T: 2}
	shapes := []struct {
		name string
		topo *multihop.Topology
	}{
		{"line-1024", multihop.Line(1024)},
		{"grid-32x32", multihop.Grid(32, 32)},
		{"rgg-1024", multihop.RandomGeometricConnected(1024, 0.07, 7)},
		{"rgg-4096", multihop.RandomGeometricConnected(4096, 0.04, 7)},
	}
	mediums := []struct {
		name   string
		medium sim.MediumPath
	}{
		{"indexed", sim.MediumIndexed},
		{"scan", sim.MediumScan},
	}
	for _, c := range shapes {
		c := c
		for _, m := range mediums {
			m := m
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				var nodeRounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := multihop.Run(&multihop.Config{
						F: p.F, T: p.T,
						Seed:     uint64(i),
						Topology: c.topo,
						NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
							return multihop.MustNewRelay(p, r)
						},
						Schedule:  sim.Staggered{Count: c.topo.N(), Gap: 2},
						Adversary: adversary.NewRandom(p.F, p.T, uint64(i)+3),
						MaxRounds: 2048,
						RunToMax:  true,
						Medium:    m.medium,
					})
					if err != nil {
						b.Fatal(err)
					}
					nodeRounds += res.NodeRounds
				}
				b.StopTimer()
				b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
			})
		}
	}
}

// BenchmarkRunnerScaling measures the experiment runner's trial
// throughput as the worker count grows: the same T10a sweep at
// Parallelism 1, 2, 4, and NumCPU. The tables are bit-identical at every
// level (TestRunnerDeterminism asserts this); only the wall clock moves,
// so sub-benchmark ratios ARE the runner's scaling curve.
func BenchmarkRunnerScaling(b *testing.B) {
	exp, ok := harness.ByID("T10a")
	if !ok {
		b.Fatal("T10a not found")
	}
	levels := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		levels = append(levels, n)
	}
	for _, par := range levels {
		par := par
		b.Run(benchName("workers", par), func(b *testing.B) {
			b.ReportAllocs()
			opt := harness.Options{Quick: true, Trials: 16, Seed: 1, Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(opt.Trials), "trials/point")
		})
	}
	// Saturation probe: many concurrent sequential runners (one per
	// goroutine, multiplied by SetParallelism) stress the scheduler the
	// way a CI box running several sweeps at once does.
	b.Run("saturated", func(b *testing.B) {
		b.SetParallelism(2)
		var trial atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			opt := harness.Options{Quick: true, Trials: 4, Parallelism: 1}
			for pb.Next() {
				opt.Seed = trial.Add(1)
				if _, err := exp.Run(opt); err != nil {
					// Fatal/FailNow must not run on RunParallel workers.
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkEngineThroughput measures raw simulator speed in node-rounds
// per second (node-rounds = Σ over rounds of awake nodes, counted by the
// engine). It is the tracked regression metric of the medium resolvers:
// each workload runs once under the frequency-indexed fast path
// (Config.Medium zero value) and once under the legacy O(F + N) scan
// oracle, so the indexed/scan ratio per workload IS the speedup.
//
//   - dense/F=8: the historical workload — every node awake from round 1
//     on a narrow band. The indexed path's win here is skipping the
//     per-round frequency sweep and schedule-slot scans.
//   - sparse/F=128: the -full sweep tier's shape — a wide band and a large
//     schedule whose nodes trickle in, so the awake population is a small
//     fraction of N and F. This is where O(active) resolution separates
//     from O(F + N) scanning (the acceptance bar is ≥ 2× at F=128).
func BenchmarkEngineThroughput(b *testing.B) {
	cases := []struct {
		name     string
		f, t     int
		schedule sim.Schedule
		rounds   uint64
	}{
		{"dense/F=8", 8, 2, sim.Simultaneous{Count: 128}, 2000},
		{"sparse/F=128", 128, 2, sim.Staggered{Count: 8192, Gap: 64}, 4096},
	}
	mediums := []struct {
		name   string
		medium sim.MediumPath
	}{
		{"indexed", sim.MediumIndexed},
		{"scan", sim.MediumScan},
	}
	for _, c := range cases {
		c := c
		for _, m := range mediums {
			m := m
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				var nodeRounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := &sim.Config{
						F:    c.f,
						T:    c.t,
						Seed: uint64(i),
						NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
							return baseline.NewWakeup(256, c.f, r)
						},
						Schedule:       c.schedule,
						Adversary:      adversary.NewRandom(c.f, c.t, uint64(i)),
						MaxRounds:      c.rounds,
						RunToMaxRounds: true,
						Medium:         m.medium,
					}
					res, err := sim.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					nodeRounds += res.Stats.NodeRounds
				}
				b.StopTimer()
				b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
			})
		}
	}
}

// BenchmarkStepDispatch measures devirtualized batch stepping against
// per-node virtual dispatch (Config.NoBatch) on both engines. The
// populations are arena-built, so the batch variant advances each cohort
// with one StepBatch call per round while the virtual variant forces the
// per-node Step fallback on the identical workload — the batch/virtual
// ratio per sub-benchmark IS the devirtualization win, and the two
// variants produce bit-identical results (TestBatchStepMatchesPerNode).
//
//   - dense: the acceptance workload — F=128, every node awake from round
//     1, so stepping dominates and the cohort loop's locality shows.
//   - sparse: a trickling schedule, so cohort bookkeeping (activation
//     inserts, growing locals) is exercised alongside stepping.
func BenchmarkStepDispatch(b *testing.B) {
	const f, tBudget = 128, 2
	dispatches := []struct {
		name    string
		noBatch bool
	}{{"batch", false}, {"virtual", true}}
	b.Run("sim", func(b *testing.B) {
		cases := []struct {
			name     string
			n        int
			schedule sim.Schedule
			rounds   uint64
		}{
			{"dense", 512, sim.Simultaneous{Count: 512}, 2000},
			{"sparse", 2048, sim.Staggered{Count: 2048, Gap: 8}, 4096},
		}
		for _, c := range cases {
			c := c
			for _, d := range dispatches {
				d := d
				b.Run(d.name+"/"+c.name, func(b *testing.B) {
					b.ReportAllocs()
					arena := baseline.NewWakeupArena(256, f, c.n)
					var nodeRounds uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := sim.Run(&sim.Config{
							F:              f,
							T:              tBudget,
							Seed:           uint64(i),
							NewAgent:       arena.NewAgent,
							Schedule:       c.schedule,
							Adversary:      adversary.NewRandom(f, tBudget, uint64(i)),
							MaxRounds:      c.rounds,
							RunToMaxRounds: true,
							NoBatch:        d.noBatch,
						})
						if err != nil {
							b.Fatal(err)
						}
						nodeRounds += res.Stats.NodeRounds
					}
					b.StopTimer()
					b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
				})
			}
		}
	})
	b.Run("multihop", func(b *testing.B) {
		topo := multihop.Grid(32, 32)
		n := topo.N()
		cases := []struct {
			name     string
			schedule sim.Schedule
			rounds   uint64
		}{
			{"dense", sim.Simultaneous{Count: n}, 1024},
			{"sparse", sim.Staggered{Count: n, Gap: 4}, 4096},
		}
		for _, c := range cases {
			c := c
			for _, d := range dispatches {
				d := d
				b.Run(d.name+"/"+c.name, func(b *testing.B) {
					b.ReportAllocs()
					arena := baseline.NewRoundRobinArena(n, f, n)
					var nodeRounds uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := multihop.Run(&multihop.Config{
							F:         f,
							T:         tBudget,
							Seed:      uint64(i),
							Topology:  topo,
							NewAgent:  arena.NewAgent,
							Schedule:  c.schedule,
							Adversary: adversary.NewRandom(f, tBudget, uint64(i)),
							MaxRounds: c.rounds,
							RunToMax:  true,
							NoBatch:   d.noBatch,
						})
						if err != nil {
							b.Fatal(err)
						}
						nodeRounds += res.NodeRounds
					}
					b.StopTimer()
					b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
				})
			}
		}
	})
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
