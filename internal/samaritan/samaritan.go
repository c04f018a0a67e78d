package samaritan

import (
	"fmt"
	"sort"

	"wsync/internal/core"
	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Params configures the Good Samaritan Protocol.
type Params struct {
	// N is the known bound on participants (>= 2, rounded to a power of
	// two); F the frequency count; T the adversary budget. The protocol
	// assumes T <= F/2 (Section 7).
	N int
	F int
	T int

	// CEpoch scales the epoch length s(k) = CEpoch·2^k·(lg N)^EpochLogPower;
	// 0 means DefaultCEpoch.
	CEpoch int
	// EpochLogPower is the exponent on lg N in s(k): 2 (default; consistent
	// with Theorem 18) or 3 (Figure 2 as printed).
	EpochLogPower int
	// ThresholdShift is the paper's 6 in the success threshold
	// s(k)/2^(k+ThresholdShift); 0 means DefaultThresholdShift.
	ThresholdShift int
	// FallbackFactor multiplies the longest Good Samaritan epoch to give
	// the fallback Trapdoor epoch length ("at least four times as long");
	// 0 means 4.
	FallbackFactor int
	// LeaderTxProb is the leader announcement probability; 0 means 1/2.
	LeaderTxProb float64

	// AblationNoHelp makes contenders ignore samaritan reports, disabling
	// the optimistic promotion path entirely; every execution then takes
	// the fallback. It quantifies the samaritans' contribution
	// (experiment X4).
	AblationNoHelp bool
}

// Defaults for the Θ-constants. The Theorem 18 experiments (T18a, T18b)
// measure the protocol at these values.
const (
	DefaultCEpoch         = 8
	DefaultEpochLogPower  = 2
	DefaultThresholdShift = 6
	DefaultFallbackFactor = 4
)

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.CEpoch == 0 {
		p.CEpoch = DefaultCEpoch
	}
	if p.EpochLogPower == 0 {
		p.EpochLogPower = DefaultEpochLogPower
	}
	if p.ThresholdShift == 0 {
		p.ThresholdShift = DefaultThresholdShift
	}
	if p.FallbackFactor == 0 {
		p.FallbackFactor = DefaultFallbackFactor
	}
	if p.LeaderTxProb == 0 {
		p.LeaderTxProb = 0.5
	}
	if p.N < 2 {
		p.N = 2
	}
	p.N = freqdist.NextPow2(p.N)
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.F < 1 {
		return fmt.Errorf("samaritan: F = %d, need >= 1", p.F)
	}
	if p.T < 0 || p.T >= p.F {
		return fmt.Errorf("samaritan: T = %d, need 0 <= T < F = %d", p.T, p.F)
	}
	if 2*p.T > p.F {
		return fmt.Errorf("samaritan: T = %d exceeds F/2 = %d, outside the protocol's assumption", p.T, p.F/2)
	}
	if p.EpochLogPower < 0 || p.EpochLogPower > 4 {
		return fmt.Errorf("samaritan: EpochLogPower = %d out of [0..4]", p.EpochLogPower)
	}
	if p.LeaderTxProb < 0 || p.LeaderTxProb > 1 {
		return fmt.Errorf("samaritan: LeaderTxProb = %v out of [0,1]", p.LeaderTxProb)
	}
	return nil
}

// LgN returns lg of the power-of-two participant bound, at least 1.
func (p Params) LgN() int {
	lg := freqdist.CeilLog2(freqdist.NextPow2(p.N))
	if lg < 1 {
		lg = 1
	}
	return lg
}

// LgF returns the number of super-epochs, at least 1.
func (p Params) LgF() int {
	lg := freqdist.CeilLog2(p.F)
	if lg < 1 {
		lg = 1
	}
	return lg
}

// logPow returns (lg N)^EpochLogPower.
func (p Params) logPow() uint64 {
	q := p.withDefaults()
	v := uint64(1)
	for i := 0; i < q.EpochLogPower; i++ {
		v *= uint64(q.LgN())
	}
	return v
}

// EpochLen returns s(k), the length of every epoch in super-epoch k.
func (p Params) EpochLen(k int) uint64 {
	q := p.withDefaults()
	if k < 1 {
		k = 1
	}
	return uint64(q.CEpoch) * (uint64(1) << uint(k)) * q.logPow()
}

// EpochsPerSuper returns lg N + 2.
func (p Params) EpochsPerSuper() int { return p.LgN() + 2 }

// BroadcastProb returns the epoch-e broadcast probability: 2^e/(2N) for
// e <= lgN, and 1/2 for the last two epochs.
func (p Params) BroadcastProb(e int) float64 {
	q := p.withDefaults()
	lg := q.LgN()
	if e < 1 {
		e = 1
	}
	if e > lg {
		return 0.5
	}
	return float64(uint64(1)<<uint(e)) / (2 * float64(q.N))
}

// SuccessThreshold returns the number of recorded successes in super-epoch
// k's critical epoch that promotes a contender to leader:
// s(k)/2^(k+ThresholdShift), at least 1.
func (p Params) SuccessThreshold(k int) uint32 {
	q := p.withDefaults()
	th := q.EpochLen(k) >> uint(k+q.ThresholdShift)
	if th < 1 {
		th = 1
	}
	return uint32(th)
}

// FallbackEpochLen returns the modified Trapdoor epoch length:
// FallbackFactor times the longest Good Samaritan epoch.
func (p Params) FallbackEpochLen() uint64 {
	q := p.withDefaults()
	return uint64(q.FallbackFactor) * q.EpochLen(q.LgF())
}

// OptimisticRounds returns the total length of all lg F super-epochs — the
// point at which a node enters the fallback.
func (p Params) OptimisticRounds() uint64 {
	s := newSchedule(p.withDefaults())
	total := uint64(0)
	for k := 1; k <= s.lgF; k++ {
		total += uint64(s.epochsPerSuper) * s.epochLen[k]
	}
	return total
}

// ScheduleRow describes one epoch of one super-epoch for the Figure 2
// table.
type ScheduleRow struct {
	Super      int
	Epoch      int
	Length     uint64
	Prob       float64
	NarrowBand int // the [1..2^k] band used with probability 1/2
	Special    bool
}

// Schedule reproduces the Figure 2 structure as a table.
func (p Params) Schedule() []ScheduleRow {
	s := newSchedule(p.withDefaults())
	rows := make([]ScheduleRow, 0, s.lgF*s.epochsPerSuper)
	for k := 1; k <= s.lgF; k++ {
		for e := 1; e <= s.epochsPerSuper; e++ {
			rows = append(rows, ScheduleRow{
				Super:      k,
				Epoch:      e,
				Length:     s.epochLen[k],
				Prob:       s.prob[e],
				NarrowBand: s.narrow[k].Hi,
				Special:    e > s.lgN,
			})
		}
	}
	return rows
}

// schedule holds the Figure 2 constants and frequency distributions the
// round loop reads, derived once per run from defaulted Params; an arena's
// slots share one. Each field equals the Params method it caches, bit for
// bit. Tables indexed by super-epoch k or epoch e leave index 0 unused.
type schedule struct {
	lgN            int
	lgF            int
	epochsPerSuper int       // lg N + 2
	fallbackLen    uint64    // FallbackEpochLen
	epochLen       []uint64  // s(k) for k in 1..lgF
	threshold      []uint32  // SuccessThreshold(k) for k in 1..lgF
	prob           []float64 // BroadcastProb(e) for e in 1..lgN+2
	// narrow[k] is the uniform distribution over [1..min(2^k, F)].
	narrow  []freqdist.Uniform
	wide    freqdist.Uniform
	special freqdist.Special
	p       Params // defaulted
}

// newSchedule derives the schedule from q, which must already carry its
// defaults. Every value comes from the Params method it caches, so the
// formulas live in one place.
func newSchedule(q Params) *schedule {
	lgN, lgF := q.LgN(), q.LgF()
	s := &schedule{
		lgN:            lgN,
		lgF:            lgF,
		epochsPerSuper: q.EpochsPerSuper(),
		fallbackLen:    q.FallbackEpochLen(),
		epochLen:       make([]uint64, lgF+1),
		threshold:      make([]uint32, lgF+1),
		prob:           make([]float64, lgN+3),
		narrow:         make([]freqdist.Uniform, lgF+1),
		wide:           freqdist.NewUniform(1, q.F),
		special:        freqdist.NewSpecial(q.F),
		p:              q,
	}
	for k := 1; k <= lgF; k++ {
		s.epochLen[k] = q.EpochLen(k)
		s.threshold[k] = q.SuccessThreshold(k)
		s.narrow[k] = freqdist.NewUniform(1, min(1<<uint(k), q.F))
	}
	for e := 1; e <= lgN+2; e++ {
		s.prob[e] = q.BroadcastProb(e)
	}
	return s
}

// Node is one Good Samaritan Protocol participant. It implements
// sim.Agent, sim.BroadcastProber and sim.LeaderReporter.
type Node struct {
	s *schedule
	r *rng.Rand

	uid  uint64
	age  uint64
	role core.Role
	out  core.OutputState

	// Optimistic-portion position.
	super      int
	epoch      int
	epochRound uint64

	// thisSpecial marks the current round as a special round; thisListen
	// marks that the node is listening this round (needed for samaritan
	// recording conditions).
	thisSpecial bool

	// tallies are the samaritan's per-super-epoch success counts.
	tallies map[uint64]uint32

	// Fallback modified-Trapdoor state.
	fbEpoch      int
	fbEpochRound uint64

	scheme uint64

	// arena is non-nil for arena-built nodes and doubles as the batch
	// cohort key: one slab, one cohort.
	arena *Arena
}

var (
	_ sim.Agent           = (*Node)(nil)
	_ sim.BatchAgent      = (*Node)(nil)
	_ sim.BroadcastProber = (*Node)(nil)
	_ sim.LeaderReporter  = (*Node)(nil)
)

// New returns a fresh contender. It returns an error for invalid
// parameters.
func New(p Params, r *rng.Rand) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := newSchedule(p.withDefaults())
	return &Node{
		s:       s,
		r:       r,
		uid:     core.NewUID(r, s.p.N),
		role:    core.RoleContender,
		super:   1,
		epoch:   1,
		tallies: make(map[uint64]uint32),
	}, nil
}

// MustNew is New for static parameters; it panics on error.
func MustNew(p Params, r *rng.Rand) *Node {
	n, err := New(p, r)
	if err != nil {
		panic(err)
	}
	return n
}

// Arena pools Node construction for one engine run: count slots in one
// contiguous slab, one schedule (a pure function of the parameters) shared
// across all slots, and each slot's samaritan tally map preallocated once
// at build. NewAgent draws exactly what New draws from the node's rng
// stream, so arena-built runs are bit-identical to MustNew-built runs;
// slot i is only ever touched by node i. Arena-built nodes form one batch
// cohort (the arena pointer is the cohort key).
type Arena struct {
	s     *schedule
	nodes []Node
}

// NewArena returns an arena with count slots for parameters p. It returns
// an error for invalid parameters.
func NewArena(p Params, count int) (*Arena, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Arena{s: newSchedule(p.withDefaults()), nodes: make([]Node, count)}
	for i := range a.nodes {
		a.nodes[i].tallies = make(map[uint64]uint32)
	}
	return a, nil
}

// MustNewArena is NewArena for callers with static parameters.
func MustNewArena(p Params, count int) *Arena {
	a, err := NewArena(p, count)
	if err != nil {
		panic(err)
	}
	return a
}

// NewAgent constructs node id in its arena slot, reusing the slot's tally
// map; it has the signature of sim.Config.NewAgent and performs no
// allocation.
func (a *Arena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	nd := &a.nodes[id]
	t := nd.tallies
	clear(t)
	*nd = Node{
		s:       a.s,
		r:       r,
		uid:     core.NewUID(r, a.s.p.N),
		role:    core.RoleContender,
		super:   1,
		epoch:   1,
		tallies: t,
		arena:   a,
	}
	return nd
}

// UID returns the node's identifier.
func (n *Node) UID() uint64 { return n.uid }

// Role returns the node's current role.
func (n *Node) Role() core.Role { return n.role }

// Super returns the node's current super-epoch (meaningful in the
// optimistic portion).
func (n *Node) Super() int { return n.super }

// InFallback reports whether the node is executing the modified Trapdoor.
func (n *Node) InFallback() bool { return n.role == core.RoleFallback }

// IsLeader reports whether the node won the competition.
func (n *Node) IsLeader() bool { return n.role == core.RoleLeader }

func (n *Node) timestamp() msg.Timestamp {
	return msg.Timestamp{Age: n.age, UID: n.uid}
}

// BroadcastProb reports the probability the upcoming Step transmits.
func (n *Node) BroadcastProb() float64 {
	switch n.role {
	case core.RoleContender, core.RoleSamaritan:
		return n.s.prob[n.epoch]
	case core.RoleFallback:
		// Half the rounds are Trapdoor rounds with prob p_e, half are
		// special rounds with prob 1/2.
		return 0.5*n.s.prob[n.fbEpoch] + 0.25
	case core.RoleLeader:
		return n.s.p.LeaderTxProb
	default:
		return 0
	}
}

// advanceOptimistic moves the (super, epoch, epochRound) position forward
// by one round, handling epoch and super-epoch boundaries. It returns false
// when the optimistic portion is exhausted (the node enters fallback).
func (n *Node) advanceOptimistic() bool {
	s := n.s
	for n.epochRound >= s.epochLen[n.super] {
		n.epochRound = 0
		n.epoch++
		if n.epoch > s.epochsPerSuper {
			n.epoch = 1
			n.super++
			// Tallies pertain to one super-epoch only.
			clear(n.tallies)
			if n.super > s.lgF {
				n.role = core.RoleFallback
				n.fbEpoch = 1
				n.fbEpochRound = 0
				return false
			}
		}
	}
	n.epochRound++
	return true
}

// Step implements sim.Agent. It is a thin wrapper over the packed step —
// the single implementation both dispatch paths share, which is what makes
// batch and per-node stepping byte-identical by construction.
func (n *Node) Step(local uint64) sim.Action {
	var a sim.Action
	f, tx := n.step(local, &a.Msg)
	a.Freq, a.Transmit = int(f), tx
	return a
}

// Cohort implements sim.BatchAgent: arena-built nodes batch per arena;
// directly constructed nodes opt out.
func (n *Node) Cohort() any {
	if n.arena == nil {
		return nil
	}
	return n.arena
}

// StepBatch implements sim.BatchAgent: one devirtualized loop over the
// cohort's slab, writing straight into the engine's action arrays. Message
// payloads are written only for transmitters.
func (n *Node) StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	nodes := n.arena.nodes
	for j, id := range ids {
		f, tx := nodes[id].step(locals[j], &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
	}
}

// step advances the node one local round, writing the outgoing message via
// m only when it transmits.
func (n *Node) step(local uint64, m *msg.Message) (freq int32, transmit bool) {
	n.age = local
	n.out.Tick()
	n.thisSpecial = false

	switch n.role {
	case core.RoleContender, core.RoleSamaritan:
		if !n.advanceOptimistic() {
			return n.fallbackStep(m)
		}
		return n.optimisticStep(m)
	case core.RoleFallback:
		return n.fallbackStep(m)
	case core.RoleLeader:
		return n.leaderStep(m)
	default: // passive or synced: listen on a robust mixture
		return n.passiveStep(), false
	}
}

// optimisticStep implements the Figure 2 round behavior for contenders
// and samaritans.
func (n *Node) optimisticStep(m *msg.Message) (int32, bool) {
	s := n.s
	kDist := s.narrow[n.super]
	prob := s.prob[n.epoch]

	if n.epoch <= s.lgN {
		// Regular epoch: half narrow band, half full band.
		var f int
		if n.r.Bool() {
			f = kDist.Sample(n.r)
		} else {
			f = s.wide.Sample(n.r)
		}
		if n.r.Bernoulli(prob) {
			*m = n.protocolMessage()
			return int32(f), true
		}
		return int32(f), false
	}

	// Last two epochs: half normal narrow-band rounds, half special rounds.
	if n.r.Bool() {
		f := kDist.Sample(n.r)
		if n.r.Bernoulli(prob) {
			*m = n.protocolMessage()
			return int32(f), true
		}
		return int32(f), false
	}
	n.thisSpecial = true
	f := s.special.Sample(n.r)
	if n.r.Bool() {
		*m = n.protocolMessage()
		m.Special = true
		return int32(f), true
	}
	return int32(f), false
}

// protocolMessage builds the node's contender or samaritan message for the
// current round.
func (n *Node) protocolMessage() msg.Message {
	m := msg.Message{
		TS:    n.timestamp(),
		Epoch: uint16(n.epoch),
		Super: uint8(n.super),
	}
	if n.role == core.RoleSamaritan {
		m.Kind = msg.KindSamaritan
		m.Reports = n.topReports()
	} else {
		m.Kind = msg.KindContender
	}
	return m
}

// topReports returns the samaritan's highest tallies, bounded by the wire
// format.
func (n *Node) topReports() []msg.Report {
	if len(n.tallies) == 0 {
		return nil
	}
	reports := make([]msg.Report, 0, len(n.tallies))
	for uid, count := range n.tallies {
		reports = append(reports, msg.Report{UID: uid, Count: count})
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Count != reports[j].Count {
			return reports[i].Count > reports[j].Count
		}
		return reports[i].UID < reports[j].UID
	})
	if len(reports) > msg.MaxReports {
		reports = reports[:msg.MaxReports]
	}
	return reports
}

// fallbackStep implements the modified Trapdoor portion: a fair coin
// decides between a Trapdoor round (full-band competition, probability
// ramp, timestamps honored) and a Good Samaritan special round.
func (n *Node) fallbackStep(m *msg.Message) (int32, bool) {
	s := n.s
	// Epoch bookkeeping advances every round.
	for n.fbEpochRound >= s.fallbackLen {
		n.fbEpochRound = 0
		n.fbEpoch++
		if n.fbEpoch > s.lgN {
			n.becomeLeader()
			return n.leaderStep(m)
		}
	}
	n.fbEpochRound++

	if n.r.Bool() {
		// Trapdoor round on the full band.
		f := s.wide.Sample(n.r)
		if n.r.Bernoulli(s.prob[n.fbEpoch]) {
			*m = msg.Message{Kind: msg.KindContender, TS: n.timestamp(), Fallback: true}
			return int32(f), true
		}
		return int32(f), false
	}
	// Special round.
	n.thisSpecial = true
	f := s.special.Sample(n.r)
	if n.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: n.timestamp(), Fallback: true, Special: true}
		return int32(f), true
	}
	return int32(f), false
}

// becomeLeader promotes the node and fixes the numbering scheme.
func (n *Node) becomeLeader() {
	n.role = core.RoleLeader
	if !n.out.Synced() {
		n.scheme = n.uid
		n.out.Adopt(n.age)
	}
}

// leaderStep announces the numbering on the special-round distribution.
func (n *Node) leaderStep(m *msg.Message) (int32, bool) {
	f := int32(n.s.special.Sample(n.r))
	if n.r.Bernoulli(n.s.p.LeaderTxProb) {
		*m = msg.Message{
			Kind:   msg.KindLeader,
			TS:     n.timestamp(),
			Round:  n.out.Value(),
			Scheme: n.scheme,
		}
		return f, true
	}
	return f, false
}

// passiveStep listens on a mixture of the full band and the special
// distribution, which meets the leader's announcement distribution often
// enough on undisrupted frequencies.
func (n *Node) passiveStep() int32 {
	if n.r.Bool() {
		return int32(n.s.wide.Sample(n.r))
	}
	return int32(n.s.special.Sample(n.r))
}

// Deliver implements sim.Agent.
func (n *Node) Deliver(m msg.Message) {
	switch m.Kind {
	case msg.KindLeader:
		n.deliverLeader(m)
	case msg.KindContender:
		n.deliverContender(m)
	case msg.KindSamaritan:
		n.deliverSamaritan(m)
	}
}

func (n *Node) deliverLeader(m msg.Message) {
	if n.role == core.RoleLeader && !n.timestamp().Less(m.TS) {
		return
	}
	n.role = core.RoleSynced
	n.scheme = m.Scheme
	n.out.Adopt(m.Round)
}

func (n *Node) deliverContender(m msg.Message) {
	switch n.role {
	case core.RoleContender:
		// Downgrade, ignoring timestamps (Section 7.1).
		n.role = core.RoleSamaritan
	case core.RoleSamaritan:
		n.maybeRecordSuccess(m)
	case core.RoleFallback:
		// Timestamps are honored again in the fallback.
		if n.timestamp().Less(m.TS) {
			n.role = core.RolePassive
		}
	}
}

// maybeRecordSuccess applies the three conditions of Section 7.1 for a
// samaritan to record a successful round for contender u: (a) the round is
// part of epoch lgN+1, (b) it is not special for either party, and (c) both
// were awakened in the same round.
func (n *Node) maybeRecordSuccess(m msg.Message) {
	critical := n.s.lgN + 1
	if n.epoch != critical || int(m.Epoch) != critical {
		return
	}
	if m.Special || n.thisSpecial || m.Fallback {
		return
	}
	if m.TS.Age != n.age {
		return
	}
	n.tallies[m.TS.UID]++
}

func (n *Node) deliverSamaritan(m msg.Message) {
	switch n.role {
	case core.RoleContender:
		// Check the reports: have we succeeded often enough this
		// super-epoch? (Condition (c) keeps counts aligned: only
		// same-activation samaritans record us.)
		if n.s.p.AblationNoHelp || int(m.Super) != n.super {
			return
		}
		th := n.s.threshold[n.super]
		for _, rep := range m.Reports {
			if rep.UID == n.uid && rep.Count >= th {
				n.becomeLeader()
				return
			}
		}
	case core.RoleSamaritan:
		// Samaritan hears samaritan: knocked out (Section 7.1).
		n.role = core.RolePassive
	}
}

// Output implements sim.Agent.
func (n *Node) Output() sim.Output {
	if !n.out.Synced() {
		return sim.Output{}
	}
	return sim.Output{Value: n.out.Value(), Synced: true}
}
