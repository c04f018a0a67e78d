package harness

import (
	"fmt"

	"wsync/internal/freqdist"
	"wsync/internal/samaritan"
	"wsync/internal/trapdoor"
)

// refTrapdoorParams is the reference configuration used for the schedule
// figure; N=64, F=8, t=2 is also the base configuration for the Theorem 10
// sweeps.
func refTrapdoorParams() trapdoor.Params {
	return trapdoor.Params{N: 64, F: 8, T: 2}
}

// runF1 reproduces Figure 1: the Trapdoor Protocol's epoch lengths and
// broadcast probabilities.
func runF1(o Options) (*Table, error) {
	p := refTrapdoorParams()
	tbl := &Table{
		ID:      "F1",
		Title:   "Trapdoor epoch schedule (Figure 1)",
		Columns: []string{"epoch", "length (rounds)", "broadcast prob"},
	}
	for _, row := range p.Schedule() {
		tbl.AddRow(row.Epoch, row.Length, fmt.Sprintf("%d/%d = %.4f",
			1<<uint(row.Epoch), 2*p.N, row.Prob))
	}
	fp := p.FPrime()
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("config: N=%d F=%d t=%d, F'=min(F,2t)=%d", p.N, p.F, p.T, fp),
		fmt.Sprintf("regular epochs: CEpoch·⌈F'/(F'−t)⌉·lgN = %d·%d·%d = %d rounds",
			trapdoor.DefaultCEpoch, (fp+fp-p.T-1)/(fp-p.T), p.LgN(), p.EpochLen()),
		fmt.Sprintf("final epoch: CFinal·⌈F'²/(F'−t)⌉·lgN = %d rounds (paper: Θ(F'²/(F'−t)·logN))",
			p.FinalEpochLen()),
		"probabilities follow Figure 1 exactly: 1/N, 2/N, ..., 1/4, 1/2",
	)
	return tbl, nil
}

// runF2 reproduces Figure 2: the Good Samaritan round structure, including
// the special-round frequency distribution.
func runF2(o Options) (*Table, error) {
	p := samaritan.Params{N: 16, F: 8, T: 2}
	tbl := &Table{
		ID:      "F2",
		Title:   "Good Samaritan round structure (Figure 2)",
		Columns: []string{"super-epoch", "epoch", "length (rounds)", "broadcast prob", "narrow band", "special rounds"},
	}
	for _, row := range p.Schedule() {
		special := "no"
		if row.Special {
			special = "half of rounds"
		}
		tbl.AddRow(row.Super, row.Epoch, row.Length, row.Prob,
			fmt.Sprintf("[1..%d]", row.NarrowBand), special)
	}
	// The special-round distribution in closed form.
	sp := freqdist.NewSpecial(p.F)
	dist := "special-round P[f]: "
	for f := 1; f <= p.F; f++ {
		dist += fmt.Sprintf("f=%d:%.3f ", f, sp.Prob(f))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("config: N=%d F=%d t=%d; lgN=%d epochs + 2 per super-epoch, lgF=%d super-epochs",
			p.N, p.F, p.T, p.LgN(), p.LgF()),
		fmt.Sprintf("epoch length s(k) = CEpoch·2^k·lg²N (see the internal/samaritan package doc on the paper's log³N inconsistency); fallback epoch = %d rounds", p.FallbackEpochLen()),
		fmt.Sprintf("success threshold s(k)/2^(k+6): k=1 → %d", p.SuccessThreshold(1)),
		dist,
	)
	return tbl, nil
}
