package rendezvous

import (
	"strings"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/rng"
)

func TestUniformStrategy(t *testing.T) {
	u := Uniform{M: 4, P: 0.5}
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		f, _ := u.Pick(uint64(i+1), r)
		if f < 1 || f > 4 {
			t.Fatalf("pick %d outside [1..4]", f)
		}
	}
	if u.Prob(1, 0) != 0 || u.Prob(1, 5) != 0 || u.Prob(1, 3) != 0.25 {
		t.Fatal("Uniform.Prob wrong")
	}
}

func TestOptimalWidthClamps(t *testing.T) {
	if w := OptimalWidth(8, 2); w.M != 4 || w.P != 0.5 {
		t.Fatalf("OptimalWidth(8,2) = %+v", w)
	}
	if w := OptimalWidth(8, 6); w.M != 8 {
		t.Fatalf("width not clamped to F: %+v", w)
	}
	if w := OptimalWidth(8, 0); w.M != 1 {
		t.Fatalf("t=0 width = %d, want 1", w.M)
	}
}

func TestStayRambleBlocks(t *testing.T) {
	// PStay = 1: the channel is constant within each dwell block.
	s := &StayRamble{M: 8, Dwell: 4, PStay: 1, P: 0.5}
	r := rng.New(7)
	var first int
	for l := uint64(1); l <= 12; l++ {
		f, _ := s.Pick(l, r)
		if f < 1 || f > 8 {
			t.Fatalf("pick %d outside band", f)
		}
		if (l-1)%4 == 0 {
			first = f
		} else if f != first {
			t.Fatalf("stay block changed channel at local %d: %d != %d", l, f, first)
		}
	}
	if s.Prob(3, 2) != 0.125 || s.Prob(3, 9) != 0 {
		t.Fatal("StayRamble.Prob wrong")
	}
	// Dwell 0 defaults to 1 (a fresh draw every round) without panicking.
	z := &StayRamble{M: 2, PStay: 0.5, P: 0.5}
	for l := uint64(1); l <= 8; l++ {
		if f, _ := z.Pick(l, r); f < 1 || f > 2 {
			t.Fatalf("dwell-0 pick %d", f)
		}
	}
}

func TestObliviousSchedule(t *testing.T) {
	o := Oblivious{M: 4, Start: 1, Stride: 3, P: 1}
	r := rng.New(1)
	want := []int{2, 1, 4, 3, 2} // (1 + 3(l-1)) mod 4, 1-based
	for i, w := range want {
		f, tx := o.Pick(uint64(i+1), r)
		if f != w {
			t.Fatalf("local %d channel = %d, want %d", i+1, f, w)
		}
		if !tx {
			t.Fatal("P=1 did not transmit")
		}
	}
	if o.Prob(3, 4) != 1 || o.Prob(3, 1) != 0 {
		t.Fatal("Oblivious.Prob not a point mass on the schedule")
	}
}

func TestRestrictedRelabels(t *testing.T) {
	rs := Restricted{S: Oblivious{M: 4, Stride: 1, P: 1}, Allowed: []int{5, 7}}
	r := rng.New(1)
	want := []int{5, 7, 5, 7} // inner 1,2,3,4 wraps onto {5,7}
	for i, w := range want {
		if f, _ := rs.Pick(uint64(i+1), r); f != w {
			t.Fatalf("local %d relabeled to %d, want %d", i+1, f, w)
		}
	}
}

func TestStaticPrefix(t *testing.T) {
	j := NewPrefix(8, 3)
	set := j.Block(&Round{F: 8})
	for f := 1; f <= 8; f++ {
		if set.Contains(f) != (f <= 3) {
			t.Fatalf("prefix jam wrong at %d", f)
		}
	}
}

// TestGreedyMatchesPrefixOnUniform pins the tie-breaking that makes the
// differential tests work: on equal-width uniform strategies every product
// ties, and the greedy jammer resolves ties toward low channels — exactly
// the static prefix.
func TestGreedyMatchesPrefixOnUniform(t *testing.T) {
	g := NewGreedy(8, 3)
	rd := &Round{
		Global:     1,
		F:          8,
		Locals:     []uint64{5, 1},
		Strategies: []Strategy{Uniform{M: 6, P: 0.5}, Uniform{M: 6, P: 0.5}},
	}
	set := g.Block(rd)
	for f := 1; f <= 8; f++ {
		if set.Contains(f) != (f <= 3) {
			t.Fatalf("greedy != prefix at channel %d", f)
		}
	}
	// Asleep parties are excluded from the product: party 1 asleep leaves
	// party 0's uniform alone, same prefix outcome.
	rd.Locals = []uint64{5, 0}
	set = g.Block(rd)
	if !set.Contains(1) || set.Contains(4) {
		t.Fatalf("asleep-party product wrong: %v", set.Slice())
	}
}

func TestGreedyNeedsProfiled(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("greedy accepted an unprofiled strategy")
		}
		if !strings.Contains(r.(string), "Profiled") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g := NewGreedy(4, 1)
	g.Block(&Round{F: 4, Locals: []uint64{1}, Strategies: []Strategy{Restricted{S: Uniform{M: 2, P: 0.5}, Allowed: []int{1, 2}}}})
}

// TestChurnFeedsHistory checks that adaptive adversaries see the parties'
// previous-round actions: a reactive jammer chases the only transmitter's
// channel.
func TestChurnFeedsHistory(t *testing.T) {
	c := NewChurn(8, adversary.NewReactive(8, 1))
	rd := &Round{Global: 1, F: 8}
	set := c.Block(rd) // no history: reactive jams the low prefix
	if !set.Contains(1) || set.Len() != 1 {
		t.Fatalf("round 1 jam = %v", set.Slice())
	}
	rd.Global = 2
	rd.Last = []Action{{Freq: 5, Transmit: true}, {Freq: 3, Transmit: false}}
	set = c.Block(rd)
	if !set.Contains(5) || set.Len() != 1 {
		t.Fatalf("reactive did not chase the transmitter: %v", set.Slice())
	}
	// Asleep parties (Freq 0) are filtered from the synthetic history.
	rd.Global = 3
	rd.Last = []Action{{}, {Freq: 2, Transmit: true}}
	set = c.Block(rd)
	if !set.Contains(2) {
		t.Fatalf("asleep filter broke the history: %v", set.Slice())
	}
}

func TestRunValidation(t *testing.T) {
	two := []Party{{Strategy: Uniform{M: 2, P: 0.5}}, {Strategy: Uniform{M: 2, P: 0.5}}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no channels", Config{F: 0, Parties: two, MaxRounds: 1}},
		{"one party", Config{F: 2, Parties: two[:1], MaxRounds: 1}},
		{"zero rounds", Config{F: 2, Parties: two}},
		{"nil strategy", Config{F: 2, Parties: []Party{{}, {Strategy: Uniform{M: 2, P: 0.5}}}, MaxRounds: 1}},
		{"mask out of band", Config{F: 2, Parties: []Party{{Strategy: Uniform{M: 2, P: 0.5}, Mask: []int{3}}, {Strategy: Uniform{M: 2, P: 0.5}}}, MaxRounds: 1}},
	}
	for _, c := range cases {
		if _, err := Run(&c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

type badStrategy struct{}

func (badStrategy) Pick(uint64, *rng.Rand) (int, bool) { return 0, true }

func TestRunRejectsOutOfBandPick(t *testing.T) {
	_, err := Run(&Config{
		F:         2,
		Parties:   []Party{{Strategy: badStrategy{}}, {Strategy: Uniform{M: 2, P: 0.5}}},
		MaxRounds: 4,
	})
	if err == nil {
		t.Fatal("out-of-band pick accepted")
	}
}

func TestTwoPartyOpenBand(t *testing.T) {
	res, err := Run(&Config{
		F:         4,
		Parties:   []Party{{Strategy: Uniform{M: 4, P: 0.5}}, {Strategy: Uniform{M: 4, P: 0.5}}},
		MaxRounds: 1 << 16,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeet == 0 || res.FirstMeet != res.AllMet {
		t.Fatalf("two-party meet/all-met mismatch: %+v", res)
	}
	if res.Rounds != res.AllMet || res.Meetings == 0 {
		t.Fatalf("bookkeeping wrong: %+v", res)
	}
	if res.NodeRounds != 2*res.Rounds {
		t.Fatalf("node rounds = %d over %d rounds", res.NodeRounds, res.Rounds)
	}
}

// TestMaskIsPerParty pins the per-listener mask lookup: A transmits on a
// channel that only C masks, so B meets A every round while C never does.
func TestMaskIsPerParty(t *testing.T) {
	res, err := Run(&Config{
		F: 4,
		Parties: []Party{
			{Strategy: Oblivious{M: 4, Start: 1, Stride: 0, P: 1}}, // tx channel 2 forever
			{Strategy: Oblivious{M: 4, Start: 1, Stride: 0, P: 0}}, // listen channel 2
			{Strategy: Oblivious{M: 4, Start: 1, Stride: 0, P: 0}, Mask: []int{2}},
		},
		MaxRounds: 50,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeet != 1 {
		t.Fatalf("B should hear A in round 1: %+v", res)
	}
	if res.AllMet != 0 {
		t.Fatalf("masked C met anyway: %+v", res)
	}
	// Only B's receptions count: one meeting per round.
	if res.Meetings != res.Rounds {
		t.Fatalf("meetings = %d over %d rounds, want equal", res.Meetings, res.Rounds)
	}
}

func TestGlobalJamBlocksEveryone(t *testing.T) {
	res, err := Run(&Config{
		F: 4,
		Parties: []Party{
			{Strategy: Oblivious{M: 4, Start: 1, Stride: 0, P: 1}},
			{Strategy: Oblivious{M: 4, Start: 1, Stride: 0, P: 0}},
		},
		Jammer:    NewStatic(4, []int{2}),
		MaxRounds: 50,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeet != 0 || res.Meetings != 0 {
		t.Fatalf("met through a jammed channel: %+v", res)
	}
}

// TestWakeAndHead checks late activation and the local-clock offset: B
// wakes at round 5 with a head start of 2, so its first pick is local
// round 3.
func TestWakeAndHead(t *testing.T) {
	// A camps on channel 1 transmitting; B's oblivious schedule hits
	// channel 1 exactly at local round 3 ((2 + (3-1)·1) mod 4 = 0).
	res, err := Run(&Config{
		F: 4,
		Parties: []Party{
			{Strategy: Oblivious{M: 4, Start: 0, Stride: 0, P: 1}},
			{Strategy: Oblivious{M: 4, Start: 2, Stride: 1, P: 0}, Wake: 5, Head: 2},
		},
		MaxRounds: 20,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeet != 5 {
		t.Fatalf("FirstMeet = %d, want 5 (B wakes at 5 on channel 1)", res.FirstMeet)
	}
}

func TestKPartyAllMet(t *testing.T) {
	k := 5
	parties := make([]Party, k)
	for i := range parties {
		parties[i] = Party{Strategy: Uniform{M: 6, P: 0.5}, Wake: uint64(1 + 2*i)}
	}
	res, err := Run(&Config{
		F:         8,
		Parties:   parties,
		Jammer:    NewPrefix(8, 2),
		MaxRounds: 1 << 18,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMet == 0 {
		t.Fatalf("%d parties never all met: %+v", k, res)
	}
	if res.FirstMeet == 0 || res.FirstMeet > res.AllMet {
		t.Fatalf("meet ordering wrong: %+v", res)
	}
	if uint64(res.Meetings) < uint64(k-1) {
		t.Fatalf("all-met with only %d meetings", res.Meetings)
	}
}

// TestDeterminism: identical configs give identical results; different
// seeds diverge.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) *Result {
		parties := []Party{
			{Strategy: &StayRamble{M: 8, Dwell: 4, PStay: 0.5, P: 0.5}},
			{Strategy: Uniform{M: 8, P: 0.5}},
			{Strategy: Uniform{M: 8, P: 0.5}, Wake: 3},
		}
		res, err := Run(&Config{
			F:         8,
			Parties:   parties,
			Jammer:    NewChurn(8, adversary.NewSweep(8, 2, 1)),
			MaxRounds: 1 << 16,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	if *a != *b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := run(6); *a == *c {
		t.Fatal("different seeds agreed exactly (suspicious)")
	}
}

// TestJamNodesInvisibleInResult: a round where only the jammer transmits
// must not count as a meeting even though the listener receives cleanly
// from the jam node.
func TestJamNodesInvisibleInResult(t *testing.T) {
	res, err := Run(&Config{
		F: 2,
		Parties: []Party{
			{Strategy: Oblivious{M: 2, Start: 0, Stride: 0, P: 0}}, // listen ch 1
			{Strategy: Oblivious{M: 2, Start: 1, Stride: 0, P: 0}}, // listen ch 2
		},
		Jammer:    NewStatic(2, []int{1, 2}),
		MaxRounds: 10,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meetings != 0 || res.FirstMeet != 0 {
		t.Fatalf("bare jam carrier counted as a meeting: %+v", res)
	}
}

func BenchmarkRendezvousThroughput(b *testing.B) {
	for _, bench := range []struct {
		name string
		jam  func() Jammer
	}{
		{"static", func() Jammer { return NewPrefix(16, 4) }},
		{"churn", func() Jammer { return NewChurn(16, adversary.NewRandom(16, 4, 99)) }},
		{"greedy", func() Jammer { return NewGreedy(16, 4) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			nodeRounds := uint64(0)
			for i := 0; i < b.N; i++ {
				parties := make([]Party, 8)
				for p := range parties {
					parties[p] = Party{Strategy: Uniform{M: 8, P: 0.5}, Wake: uint64(1 + p)}
				}
				res, err := Run(&Config{
					F:         16,
					Parties:   parties,
					Jammer:    bench.jam(),
					MaxRounds: 1 << 14,
					Seed:      uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				nodeRounds += res.NodeRounds
			}
			b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
		})
	}
}
