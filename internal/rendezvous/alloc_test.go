package rendezvous_test

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/rendezvous"
)

// TestRunRoundAllocs pins the rendezvous round to zero allocations: a
// 2200-round game must allocate exactly as much as a 200-round one, so
// everything beyond setup happens in buffers that have reached their
// working size. Sixteen parties transmit every round (P = 1), so nobody
// ever listens, meets or stops early; MaskFlip churns the masks at the
// perfbench rate, under the greedy jammer and a churn-wrapped random one.
func TestRunRoundAllocs(t *testing.T) {
	const k, f, jam = 16, 64, 24
	for _, c := range []struct {
		name string
		jam  func() rendezvous.Jammer
	}{
		{"greedy", func() rendezvous.Jammer { return rendezvous.NewGreedy(f, jam) }},
		{"churn-random", func() rendezvous.Jammer { return rendezvous.NewChurn(f, adversary.NewRandom(f, jam, 3)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(rounds uint64) float64 {
				return testing.AllocsPerRun(3, func() {
					parties := make([]rendezvous.Party, k)
					for p := range parties {
						parties[p] = rendezvous.Party{Strategy: rendezvous.Uniform{M: 2 * jam, P: 1}, Wake: uint64(1 + 4*p)}
					}
					res, err := rendezvous.Run(&rendezvous.Config{
						F: f, Parties: parties, Jammer: c.jam(),
						Masks:     churn.NewMaskFlip(k, f, 0.02, 5),
						MaxRounds: rounds, Seed: 9,
					})
					if err != nil || res.Rounds != rounds || res.Meetings != 0 {
						t.Fatalf("%d-round game: %+v, %v", rounds, res, err)
					}
				})
			}
			short, long := allocs(200), allocs(2200)
			if long != short {
				t.Fatalf("2200 rounds allocate %v, 200 rounds %v: %v allocations in 2000 steady-state rounds",
					long, short, long-short)
			}
			t.Logf("%v allocations per game, setup included", short)
		})
	}
}
