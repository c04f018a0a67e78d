package rendezvous_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/rendezvous"
)

// Golden cases pin rendezvous.Run's results to recorded digests: each case
// builds a fresh config (jammers, strategies and mask models are stateful),
// runs it, and hashes the Result's JSON encoding. Engine rewrites must
// leave every digest unchanged; a deliberate change of results re-records
// them in the same commit.
var rendezvousGolden = []struct {
	name string
	cfg  func() *rendezvous.Config
}{
	{"k2/uniform/open", func() *rendezvous.Config {
		return &rendezvous.Config{F: 4, Parties: uniformParties(2, 4, 0.5, 0, 0), MaxRounds: 1 << 12, Seed: 1}
	}},
	{"k2/optimal-width/greedy", func() *rendezvous.Config {
		w := rendezvous.OptimalWidth(16, 4)
		return &rendezvous.Config{F: 16, Parties: []rendezvous.Party{{Strategy: w}, {Strategy: w, Wake: 3, Head: 5}},
			Jammer: rendezvous.NewGreedy(16, 4), MaxRounds: 1 << 14, Seed: 2}
	}},
	{"k4/prefix/staggered-head", func() *rendezvous.Config {
		return &rendezvous.Config{F: 8, Parties: uniformParties(4, 6, 0.5, 3, 2), Jammer: rendezvous.NewPrefix(8, 2),
			MaxRounds: 1 << 14, Seed: 3}
	}},
	{"k8/static-set/uniform", func() *rendezvous.Config {
		return &rendezvous.Config{F: 12, Parties: uniformParties(8, 12, 0.4, 1, 0),
			Jammer: rendezvous.NewStatic(12, []int{2, 5, 7, 11}), MaxRounds: 1 << 14, Seed: 4}
	}},
	{"k16/greedy/maskflip", func() *rendezvous.Config {
		w := rendezvous.OptimalWidth(32, 12)
		parties := make([]rendezvous.Party, 16)
		for p := range parties {
			parties[p] = rendezvous.Party{Strategy: w, Wake: uint64(1 + 4*p)}
		}
		return &rendezvous.Config{F: 32, Parties: parties, Jammer: rendezvous.NewGreedy(32, 12),
			Masks: churn.NewMaskFlip(16, 32, 0.02, 5), MaxRounds: 1 << 16, Seed: 5}
	}},
	{"k32/churn-random/maskflip", func() *rendezvous.Config {
		return &rendezvous.Config{F: 24, Parties: uniformParties(32, 16, 0.5, 2, 1),
			Jammer: rendezvous.NewChurn(24, adversary.NewRandom(24, 8, 6)),
			Masks:  churn.NewMaskFlip(32, 24, 0.03, 6), MaxRounds: 1 << 16, Seed: 6}
	}},
	{"k3/static-masks/duplicates", func() *rendezvous.Config {
		parties := uniformParties(3, 6, 0.5, 0, 0)
		parties[0].Mask = []int{1, 1, 4}
		parties[1].Mask = []int{2, 6, 2, 2}
		parties[2].Mask = []int{5}
		return &rendezvous.Config{F: 6, Parties: parties, MaxRounds: 1 << 14, Seed: 7}
	}},
	{"k5/restricted/complement-masks", func() *rendezvous.Config {
		allowed := [][]int{{1, 3, 5, 7}, {3, 4, 5}, {5, 6, 7, 8}, {1, 5}, {2, 5, 8}}
		parties := make([]rendezvous.Party, len(allowed))
		for p, a := range allowed {
			var mask []int
			for f := 1; f <= 8; f++ {
				if !slices.Contains(a, f) {
					mask = append(mask, f)
				}
			}
			parties[p] = rendezvous.Party{
				Strategy: rendezvous.Restricted{S: rendezvous.Uniform{M: len(a), P: 0.5}, Allowed: a},
				Wake:     uint64(1 + p), Mask: mask,
			}
		}
		return &rendezvous.Config{F: 8, Parties: parties, Jammer: rendezvous.NewStatic(8, []int{7}), MaxRounds: 1 << 15, Seed: 8}
	}},
	{"k4/stayramble/churn-reactive", func() *rendezvous.Config {
		parties := make([]rendezvous.Party, 4)
		for p := range parties {
			parties[p] = rendezvous.Party{Strategy: &rendezvous.StayRamble{M: 10, Dwell: 5, PStay: 0.6, P: 0.5}, Wake: uint64(1 + 2*p), Head: uint64(p)}
		}
		return &rendezvous.Config{F: 10, Parties: parties, Jammer: rendezvous.NewChurn(10, adversary.NewReactive(10, 3)),
			MaxRounds: 1 << 15, Seed: 9}
	}},
	{"k6/oblivious/churn-stalker", func() *rendezvous.Config {
		parties := make([]rendezvous.Party, 6)
		for p := range parties {
			parties[p] = rendezvous.Party{Strategy: rendezvous.Oblivious{M: 9, Start: p, Stride: 1 + p%4, P: 0.3}, Wake: uint64(1 + p)}
		}
		return &rendezvous.Config{F: 9, Parties: parties, Jammer: rendezvous.NewChurn(9, adversary.NewStalker(9, 3)),
			MaxRounds: 1 << 14, Seed: 10}
	}},
	{"k2/oblivious/greedy/hits-max", func() *rendezvous.Config {
		// The product jammer sees both deterministic hops and starves them.
		return &rendezvous.Config{F: 6, Parties: []rendezvous.Party{
			{Strategy: rendezvous.Oblivious{M: 6, Start: 0, Stride: 1, P: 0.5}},
			{Strategy: rendezvous.Oblivious{M: 6, Start: 3, Stride: 5, P: 0.5}},
		}, Jammer: rendezvous.NewGreedy(6, 2), MaxRounds: 700, Seed: 11}
	}},
	{"k8/uniform/cut-at-max", func() *rendezvous.Config {
		return &rendezvous.Config{F: 16, Parties: uniformParties(8, 16, 0.5, 1, 3), Jammer: rendezvous.NewPrefix(16, 6),
			Masks: churn.NewMaskFlip(8, 16, 0.05, 12), MaxRounds: 25, Seed: 12}
	}},
	{"f1/k2", func() *rendezvous.Config {
		return &rendezvous.Config{F: 1, Parties: uniformParties(2, 1, 0.5, 2, 4), MaxRounds: 1 << 10, Seed: 13}
	}},
	{"f1/k3/maskflip", func() *rendezvous.Config {
		return &rendezvous.Config{F: 1, Parties: uniformParties(3, 1, 0.3, 0, 0),
			Masks: churn.NewMaskFlip(3, 1, 0.3, 14), MaxRounds: 1 << 12, Seed: 14}
	}},
	{"f1/k2/static-jam/hits-max", func() *rendezvous.Config {
		return &rendezvous.Config{F: 1, Parties: uniformParties(2, 1, 0.5, 0, 0), Jammer: rendezvous.NewPrefix(1, 1),
			MaxRounds: 300, Seed: 15}
	}},
	{"k3/scripted/block-unblock-reblock", func() *rendezvous.Config {
		parties := uniformParties(3, 3, 0.5, 0, 0)
		for p := range parties {
			parties[p].Wake = 2
		}
		return &rendezvous.Config{F: 3, Parties: parties, Masks: &script{deltas: map[uint64][2][][2]int{
			2:  {{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}}, nil},
			5:  {nil, {{0, 1}, {1, 2}}},
			6:  {{{0, 1}}, {{1, 1}, {2, 3}}},
			9:  {{{1, 1}, {2, 3}}, {{0, 1}}},
			12: {{{0, 1}, {2, 2}}, {{1, 1}, {1, 3}, {0, 2}}},
			15: {nil, {{0, 1}, {2, 1}, {2, 2}}},
		}}, MaxRounds: 1 << 12, Seed: 16}
	}},
	{"k4/scripted/over-static-masks", func() *rendezvous.Config {
		parties := uniformParties(4, 5, 0.5, 1, 0)
		parties[0].Mask = []int{1, 2}
		parties[3].Mask = []int{5, 5}
		return &rendezvous.Config{F: 5, Parties: parties, Jammer: rendezvous.NewPrefix(5, 1), Masks: &script{deltas: map[uint64][2][][2]int{
			2:  {{{0, 1}, {0, 3}, {3, 5}, {2, 4}}, nil},
			4:  {nil, {{0, 1}, {3, 5}}},
			7:  {{{0, 1}, {3, 5}, {1, 2}}, {{0, 3}}},
			11: {nil, {{0, 1}, {1, 2}, {2, 4}, {3, 5}}},
		}}, MaxRounds: 1 << 13, Seed: 17}
	}},
	{"k12/greedy/mixed-profiled", func() *rendezvous.Config {
		parties := make([]rendezvous.Party, 12)
		for p := range parties {
			var s rendezvous.Strategy
			switch p % 3 {
			case 0:
				s = rendezvous.Uniform{M: 20, P: 0.5}
			case 1:
				s = &rendezvous.StayRamble{M: 16, Dwell: 3, PStay: 0.5, P: 0.5}
			default:
				s = rendezvous.Oblivious{M: 20, Start: p, Stride: 7, P: 0.5}
			}
			parties[p] = rendezvous.Party{Strategy: s, Wake: uint64(1 + 3*p), Head: uint64(2 * p)}
		}
		return &rendezvous.Config{F: 20, Parties: parties, Jammer: rendezvous.NewGreedy(20, 5), MaxRounds: 1 << 15, Seed: 18}
	}},
	{"k16/churn-random/maskflip/staggered", func() *rendezvous.Config {
		w := rendezvous.OptimalWidth(64, 24)
		parties := make([]rendezvous.Party, 16)
		for p := range parties {
			parties[p] = rendezvous.Party{Strategy: w, Wake: uint64(1 + 4*p)}
		}
		return &rendezvous.Config{F: 64, Parties: parties, Jammer: rendezvous.NewChurn(64, adversary.NewRandom(64, 24, 19)),
			Masks: churn.NewMaskFlip(16, 64, 0.02, 19), MaxRounds: 1 << 16, Seed: 19}
	}},
	{"k16/greedy/maskflip/f64", func() *rendezvous.Config {
		w := rendezvous.OptimalWidth(64, 24)
		parties := make([]rendezvous.Party, 16)
		for p := range parties {
			parties[p] = rendezvous.Party{Strategy: w, Wake: uint64(1 + 4*p)}
		}
		return &rendezvous.Config{F: 64, Parties: parties, Jammer: rendezvous.NewGreedy(64, 24),
			Masks: churn.NewMaskFlip(16, 64, 0.02, 20), MaxRounds: 1 << 16, Seed: 20}
	}},
	{"k4/maskflip/high-rate", func() *rendezvous.Config {
		return &rendezvous.Config{F: 8, Parties: uniformParties(4, 8, 0.5, 0, 0),
			Masks: churn.NewMaskFlip(4, 8, 0.2, 21), MaxRounds: 1 << 14, Seed: 21}
	}},
	{"k5/churn-sweep/static-masks", func() *rendezvous.Config {
		parties := uniformParties(5, 10, 0.5, 2, 1)
		for p := range parties {
			parties[p].Mask = []int{1 + p, 10 - p}
		}
		return &rendezvous.Config{F: 10, Parties: parties, Jammer: rendezvous.NewChurn(10, adversary.NewSweep(10, 3, 2)),
			MaxRounds: 1 << 14, Seed: 22}
	}},
	{"k32/prefix/maskflip", func() *rendezvous.Config {
		return &rendezvous.Config{F: 16, Parties: uniformParties(32, 12, 0.5, 1, 0), Jammer: rendezvous.NewPrefix(16, 4),
			Masks: churn.NewMaskFlip(32, 16, 0.05, 23), MaxRounds: 1 << 16, Seed: 23}
	}},
	{"k6/churn-reactive/masks/maskflip", func() *rendezvous.Config {
		parties := uniformParties(6, 12, 0.5, 3, 2)
		parties[1].Mask = []int{3, 4, 4}
		parties[4].Mask = []int{12}
		return &rendezvous.Config{F: 12, Parties: parties, Jammer: rendezvous.NewChurn(12, adversary.NewReactive(12, 2)),
			Masks: churn.NewMaskFlip(6, 12, 0.04, 24), MaxRounds: 1 << 15, Seed: 24}
	}},
	{"k3/greedy/scripted", func() *rendezvous.Config {
		return &rendezvous.Config{F: 6, Parties: uniformParties(3, 6, 0.5, 2, 0), Jammer: rendezvous.NewGreedy(6, 2),
			Masks: &script{deltas: map[uint64][2][][2]int{
				3: {{{0, 3}, {1, 3}, {2, 3}}, nil},
				8: {{{0, 4}}, {{1, 3}}},
				9: {{{1, 3}}, {{0, 3}, {0, 4}}},
			}}, MaxRounds: 1 << 14, Seed: 25}
	}},
}

// uniformParties builds k Uniform{M: m, P: p} parties, party i waking at
// round 1 + i·wakeGap with a head start of i·head.
func uniformParties(k, m int, p float64, wakeGap, head uint64) []rendezvous.Party {
	parties := make([]rendezvous.Party, k)
	for i := range parties {
		parties[i] = rendezvous.Party{Strategy: rendezvous.Uniform{M: m, P: p}, Wake: 1 + uint64(i)*wakeGap, Head: uint64(i) * head}
	}
	return parties
}

// script replays fixed per-round mask deltas: round -> {block, unblock}.
type script struct {
	deltas map[uint64][2][][2]int
}

func (s *script) MaskDeltas(r uint64) (block, unblock [][2]int) {
	d := s.deltas[r]
	return d[0], d[1]
}

// TestRendezvousGolden runs every case and compares the SHA-256 of its
// Result JSON to the recorded digest. On a mismatch the log lists every
// case's digest.
func TestRendezvousGolden(t *testing.T) {
	var table string
	for _, c := range rendezvousGolden {
		res, err := rendezvous.Run(c.cfg())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		table += fmt.Sprintf("\t%q: %q,\n", c.name, got)
		if want := rendezvousDigests[c.name]; got != want {
			t.Errorf("%s: digest %s, recorded %s (result %s)", c.name, got, want, data)
		}
	}
	if t.Failed() {
		t.Log("digests:\n" + table)
	}
}

// rendezvousDigests holds the recorded digest of every case.
var rendezvousDigests = map[string]string{
	"k2/uniform/open":                     "724764ba45ccb4f643622bdead9276db793f5f380a9ebaf64aec858e2f4fb487",
	"k2/optimal-width/greedy":             "ded331b6876def554569a79c13e238f09cf5a799bcfdf7a18ea184fa1b8891ad",
	"k4/prefix/staggered-head":            "1797cf85f14fbe7d6f7d4d960107c34f563a298fc8de167900bd623dd9588fa9",
	"k8/static-set/uniform":               "16c955e78403334b426caec002a36b5ca99f827c0ba0a27c9e6da42175b9ccbf",
	"k16/greedy/maskflip":                 "3606130063af0a9e330a3635d6fdf37b99907cf44b8cfb63fc577ab249aec280",
	"k32/churn-random/maskflip":           "1cf906deb6b069edad9f15cfbfe9b81e69c1022cac9fcc3d6339632f61470120",
	"k3/static-masks/duplicates":          "bb7702ce95720d7143c76ddffe29aeb1b9211848e84e3b1d569e23a6675bc241",
	"k5/restricted/complement-masks":      "3430bfe19d6a8188b60c0722bdeb13509e3aba101569491ca2ddb9e0caf185cf",
	"k4/stayramble/churn-reactive":        "d56fb1add96a3d126b42ebe7009db661f2792a00b16291260387f0c46a9f51e0",
	"k6/oblivious/churn-stalker":          "5728ea478ac2e80a85da59625a7ea9d077caa11755ad13d66aa688e5e40f2a9b",
	"k2/oblivious/greedy/hits-max":        "3c588ba1ceb529f2ce589816f1ab802101cec7656165d16391005951a03ee0ac",
	"k8/uniform/cut-at-max":               "aaa2f6fb6e6a0108881774f053551a9dd55d20b23db2196d16b8cb1c83a0836f",
	"f1/k2":                               "fc0f1260c62c6cfb37f37f82c0c0cf74965ade6ffafb4f423be2be7ffe11d7ec",
	"f1/k3/maskflip":                      "33cc1085e5a51aa35bafa6f6fd40176d5093dab9f1b4da737cc39623e78b712d",
	"f1/k2/static-jam/hits-max":           "2abc7e8b3c8cd1f07dd1c1eb6cd3f7a42bd6c43094b612ec0dfcd661f81970f3",
	"k3/scripted/block-unblock-reblock":   "3b0947763d2147962de5d829b2dadf6ad5a3beabded38eb3082e420e16a3abfc",
	"k4/scripted/over-static-masks":       "990b19bfb7bbd9e119c74589bbeed032ea746fa8c8a49ac37277ff1b78123c14",
	"k12/greedy/mixed-profiled":           "16d1134022dc54809de6c0871ac81ee8ff3dc0b357ce17ec50c9491caa15e26b",
	"k16/churn-random/maskflip/staggered": "f4116cde8f4fac56763f7bdcbb2e4f3a676cc58ed4ab2bf7c4b31c524aac87e0",
	"k16/greedy/maskflip/f64":             "053c2b6bf732e79a411483b808e69fdd644ecc1048538b6b7c02f971cf80b1f5",
	"k4/maskflip/high-rate":               "82aa4f5d0e1bdba560d479ca31f18d00cf9a93efabd2b6c745dcfd532f8ec0d8",
	"k5/churn-sweep/static-masks":         "752fa65d6be7fbe6bfa601b60a172494275472007cae8d2c3a8ab8cda461f6ff",
	"k32/prefix/maskflip":                 "99fadd5158802553c83face3b3ac5d3c1246b3600f0d27b8a13c9d24ccf8fff8",
	"k6/churn-reactive/masks/maskflip":    "a17f5c5d8527ffe4dfc896e8fb50dd2a11a30a6de6a0ada873eaa874abb139ad",
	"k3/greedy/scripted":                  "a74aa64469566dd645e90d6f69b86fb45a32946aca70afe3592165436c208cb1",
}
