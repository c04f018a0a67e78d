package trapdoor

import (
	"math"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/core"
	"wsync/internal/msg"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 8, F: 0, T: 0},
		{N: 8, F: 4, T: -1},
		{N: 8, F: 4, T: 4},
		{N: 8, F: 4, T: 1, LeaderTxProb: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	good := Params{N: 8, F: 4, T: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestFPrime(t *testing.T) {
	cases := []struct{ f, t, want int }{
		{8, 2, 4}, // 2t < F
		{8, 6, 8}, // 2t > F
		{8, 4, 8}, // 2t == F
		{8, 0, 1}, // no disruption: one channel suffices
		{1, 0, 1},
	}
	for _, c := range cases {
		p := Params{N: 8, F: c.f, T: c.t}
		if got := p.FPrime(); got != c.want {
			t.Errorf("FPrime(F=%d, T=%d) = %d, want %d", c.f, c.t, got, c.want)
		}
	}
}

// TestScheduleMatchesFigure1 verifies the generated epoch table against the
// structure printed in Figure 1 of the paper: lgN epochs, the first lgN−1
// of length Θ(F'/(F'−t)·logN) with probabilities 1/N, 2/N, ..., 1/4, and a
// final epoch of length Θ(F'²/(F'−t)·logN) with probability 1/2.
func TestScheduleMatchesFigure1(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2, CEpoch: 4, CFinal: 4}
	rows := p.Schedule()
	lg := p.LgN()
	if lg != 4 || len(rows) != 4 {
		t.Fatalf("lgN = %d, rows = %d, want 4", lg, len(rows))
	}
	// Probabilities: 2^e/(2N) = 1/16, 2/16, 4/16, 8/16.
	wantProb := []float64{1.0 / 16, 2.0 / 16, 4.0 / 16, 8.0 / 16}
	for i, row := range rows {
		if math.Abs(row.Prob-wantProb[i]) > 1e-12 {
			t.Errorf("epoch %d prob = %v, want %v", row.Epoch, row.Prob, wantProb[i])
		}
	}
	if rows[lg-1].Prob != 0.5 {
		t.Errorf("final epoch prob = %v, want 0.5", rows[lg-1].Prob)
	}
	// Lengths: F'=4, F'−t=2 → regular 4·2·4 = 32, final 4·8·4 = 128.
	for i := 0; i < lg-1; i++ {
		if rows[i].Length != 32 {
			t.Errorf("epoch %d length = %d, want 32", rows[i].Epoch, rows[i].Length)
		}
	}
	if rows[lg-1].Length != 128 {
		t.Errorf("final epoch length = %d, want 128", rows[lg-1].Length)
	}
	if got, want := p.TotalRounds(), uint64(3*32+128); got != want {
		t.Errorf("TotalRounds = %d, want %d", got, want)
	}
}

func TestBroadcastProbClamps(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2}
	if p.BroadcastProb(0) != p.BroadcastProb(1) {
		t.Error("epoch below 1 not clamped")
	}
	if p.BroadcastProb(99) != 0.5 {
		t.Errorf("epoch above lgN = %v, want 0.5", p.BroadcastProb(99))
	}
}

func TestNDefaultsToPowerOfTwo(t *testing.T) {
	p := Params{N: 20, F: 4, T: 1}.withDefaults()
	if p.N != 32 {
		t.Fatalf("N = %d, want 32", p.N)
	}
	p2 := Params{N: 0, F: 4, T: 1}.withDefaults()
	if p2.N != 2 {
		t.Fatalf("N = %d, want 2 (minimum)", p2.N)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(Params{N: 8, F: 0}, rng.New(1)); err == nil {
		t.Fatal("New accepted invalid params")
	}
}

func TestKnockoutRule(t *testing.T) {
	p := Params{N: 8, F: 4, T: 1}
	n := MustNew(p, rng.New(1))
	n.Step(5) // age 5
	// Smaller timestamp: no knockout.
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 3, UID: 1}})
	if n.Role() != core.RoleContender {
		t.Fatal("knocked out by smaller timestamp")
	}
	// Equal age, smaller uid: no knockout.
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 5, UID: 0}})
	if n.Role() != core.RoleContender {
		t.Fatal("knocked out by smaller uid")
	}
	// Larger timestamp: knockout.
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 9, UID: 1}})
	if n.Role() != core.RoleKnockedOut {
		t.Fatal("not knocked out by larger timestamp")
	}
	// Knocked-out nodes only listen.
	for i := 0; i < 50; i++ {
		if a := n.Step(uint64(6 + i)); a.Transmit {
			t.Fatal("knocked-out node transmitted")
		}
	}
	if n.BroadcastProb() != 0 {
		t.Fatal("knocked-out node reports nonzero weight")
	}
}

func TestAdoptLeaderNumbering(t *testing.T) {
	p := Params{N: 8, F: 4, T: 1}
	n := MustNew(p, rng.New(1))
	n.Step(1)
	if out := n.Output(); out.Synced {
		t.Fatal("synced before hearing a leader")
	}
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 50, UID: 9}, Round: 1234, Scheme: 9})
	out := n.Output()
	if !out.Synced || out.Value != 1234 {
		t.Fatalf("output = %+v, want synced 1234", out)
	}
	// Next round increments.
	n.Step(2)
	if got := n.Output().Value; got != 1235 {
		t.Fatalf("next round output = %d, want 1235", got)
	}
	// Synced nodes listen only.
	for i := 0; i < 50; i++ {
		if a := n.Step(uint64(3 + i)); a.Transmit {
			t.Fatal("synced node transmitted")
		}
	}
}

func TestContenderBecomesLeaderAlone(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1}
	n := MustNew(p, rng.New(7))
	total := p.TotalRounds()
	for r := uint64(1); r <= total+1; r++ {
		n.Step(r)
	}
	if !n.IsLeader() {
		t.Fatalf("lone contender not leader after %d rounds", total+1)
	}
	out := n.Output()
	if !out.Synced {
		t.Fatal("leader not synced")
	}
	// Leader outputs its age as the round number.
	if out.Value != total+1 {
		t.Fatalf("leader output = %d, want %d", out.Value, total+1)
	}
	if n.BroadcastProb() != 0.5 {
		t.Fatalf("leader BroadcastProb = %v, want 0.5", n.BroadcastProb())
	}
}

func TestLeaderDefersToOlderLeader(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1}
	n := MustNew(p, rng.New(7))
	total := p.TotalRounds()
	for r := uint64(1); r <= total+1; r++ {
		n.Step(r)
	}
	if !n.IsLeader() {
		t.Fatal("setup: node must be leader")
	}
	// A younger leader's message is ignored.
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 1, UID: 0}, Round: 77, Scheme: 5})
	if !n.IsLeader() {
		t.Fatal("leader deferred to younger leader")
	}
	// An older leader's message wins.
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 1 << 40, UID: 0}, Round: 77, Scheme: 5})
	if n.IsLeader() {
		t.Fatal("leader did not defer to older leader")
	}
	if got := n.Output().Value; got != 77 {
		t.Fatalf("output = %d, want 77 after deferring", got)
	}
}

// runConfig builds a simulation of the protocol.
func runConfig(p Params, sched sim.Schedule, adv sim.Adversary, seed uint64, maxRounds uint64) *sim.Config {
	return &sim.Config{
		F:    p.F,
		T:    p.T,
		Seed: seed,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return MustNew(p, r)
		},
		Schedule:  sched,
		Adversary: adv,
		MaxRounds: maxRounds,
	}
}

func TestTwoNodesSync(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1}
	cfg := runConfig(p, sim.Simultaneous{Count: 2}, adversary.NewPrefix(4, 1), 3, 20000)
	check := props.NewChecker(2)
	cfg.Observers = []sim.Observer{check}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced {
		t.Fatalf("nodes did not sync: %+v", res)
	}
	if !check.OK() {
		t.Fatalf("property violations: %v", check.Violations())
	}
	if res.Leaders != 1 {
		t.Fatalf("leaders = %d, want 1", res.Leaders)
	}
}

func TestManyNodesSyncUnderJamming(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 64, F: 8, T: 3}
	for seed := uint64(0); seed < 5; seed++ {
		cfg := runConfig(p, sim.Simultaneous{Count: 16}, adversary.NewPrefix(8, 3), seed, 200000)
		check := props.NewChecker(16)
		cfg.Observers = []sim.Observer{check}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not all synced (rounds=%d)", seed, res.Stats.Rounds)
		}
		if !check.OK() {
			t.Fatalf("seed %d: violations: %v", seed, check.Violations())
		}
		if res.Leaders != 1 {
			t.Fatalf("seed %d: leaders = %d", seed, res.Leaders)
		}
	}
}

func TestStaggeredActivationOldestWins(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 32, F: 6, T: 2}
	wins := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		var first *Node
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: seed,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n := MustNew(p, r)
				if id == 0 {
					first = n
				}
				return n
			},
			Schedule:  sim.Staggered{Count: 8, Gap: 40},
			Adversary: adversary.NewRandom(p.F, p.T, seed+1000),
			MaxRounds: 400000,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not synced", seed)
		}
		if first.IsLeader() {
			wins++
		}
	}
	// The earliest-activated node has the largest timestamp and should
	// essentially always win.
	if wins < trials-1 {
		t.Fatalf("first node won only %d/%d times", wins, trials)
	}
}

func TestRandomWindowActivationProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 32, F: 6, T: 2}
	cfg := runConfig(p, sim.RandomWindow(12, 300, 5), adversary.NewSweep(6, 2, 1), 11, 400000)
	check := props.NewChecker(12)
	cfg.Observers = []sim.Observer{check}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced || !check.OK() || res.Leaders != 1 {
		t.Fatalf("res=%+v violations=%v", res, check.Violations())
	}
}

func TestRuntimeWithinTheoryEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// MaxSyncLocal should be within a modest constant of the Theorem 10
	// bound: F/(F−t)·lg²N + Ft/(F−t)·lgN.
	p := Params{N: 64, F: 8, T: 2}
	lg := float64(p.LgN())
	f, tt := float64(p.F), float64(p.T)
	theory := f/(f-tt)*lg*lg + f*tt/(f-tt)*lg
	worst := uint64(0)
	for seed := uint64(0); seed < 5; seed++ {
		cfg := runConfig(p, sim.Simultaneous{Count: 8}, adversary.NewPrefix(8, 2), seed, 1000000)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not synced", seed)
		}
		if res.MaxSyncLocal > worst {
			worst = res.MaxSyncLocal
		}
	}
	if float64(worst) > 60*theory {
		t.Fatalf("sync took %d rounds, theory envelope %f", worst, theory)
	}
}

func TestCommitThresholdDelaysOutput(t *testing.T) {
	p := Params{N: 8, F: 4, T: 1, FaultTolerant: true, CommitThreshold: 3}
	n := MustNew(p, rng.New(2))
	n.Step(1)
	lead := msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 90, UID: 4}, Round: 500, Scheme: 4}
	n.Deliver(lead)
	if n.Output().Synced {
		t.Fatal("committed after 1 message with threshold 3")
	}
	n.Step(2)
	lead.Round = 501
	n.Deliver(lead)
	if n.Output().Synced {
		t.Fatal("committed after 2 messages with threshold 3")
	}
	n.Step(3)
	lead.Round = 502
	n.Deliver(lead)
	out := n.Output()
	if !out.Synced || out.Value != 502 {
		t.Fatalf("output = %+v, want synced 502", out)
	}
}

func TestFaultTolerantRestart(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1, FaultTolerant: true, LeaderTimeout: 10}
	n := MustNew(p, rng.New(3))
	n.Step(1)
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 90, UID: 4}, Round: 500, Scheme: 4})
	if !n.Output().Synced {
		t.Fatal("did not commit")
	}
	// Silence for more than LeaderTimeout rounds forces a restart.
	for r := uint64(2); r <= 14; r++ {
		n.Step(r)
	}
	if n.Role() != core.RoleContender {
		t.Fatalf("role = %v, want contender after leader silence", n.Role())
	}
	if n.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", n.Restarts())
	}
	// Output survives the restart (Synch Commit) and keeps incrementing.
	if out := n.Output(); !out.Synced || out.Value != 513 {
		t.Fatalf("output = %+v, want synced 513", out)
	}
}

func TestFaultTolerantLeaderContinuesNumbering(t *testing.T) {
	p := Params{N: 2, F: 4, T: 1, FaultTolerant: true, LeaderTimeout: 10}
	n := MustNew(p, rng.New(4))
	n.Step(1)
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 90, UID: 4}, Round: 500, Scheme: 4})
	// Force restart, then run the node alone until it becomes leader.
	r := uint64(2)
	for ; n.Role() != core.RoleLeader; r++ {
		n.Step(r)
		if r > 1_000_000 {
			t.Fatal("node never became leader")
		}
	}
	// The new leader must continue the adopted numbering: output value is
	// 500 + (r-1) - 1 rounds elapsed since adoption at round 1.
	want := 500 + (r - 1) - 1
	if got := n.Output().Value; got != want {
		t.Fatalf("restarted leader output = %d, want %d (continuing old scheme)", got, want)
	}
}

// TestBurstArrival synchronizes under burst activation: two waves of
// contenders joining 200 rounds apart, the worst instantaneous-contention
// pattern.
func TestBurstArrival(t *testing.T) {
	p := Params{N: 32, F: 8, T: 2}
	cfg := runConfig(p, sim.Burst{Groups: 2, GroupSize: 4, Gap: 200},
		adversary.NewPrefix(8, 2), 23, 400000)
	check := props.NewChecker(8)
	cfg.Observers = []sim.Observer{check}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced || !check.OK() || res.Leaders != 1 {
		t.Fatalf("burst arrival failed: synced=%v violations=%d leaders=%d",
			res.AllSynced, check.Count(), res.Leaders)
	}
}
