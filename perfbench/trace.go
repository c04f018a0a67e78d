package main

import (
	"time"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// span is one traced interval. Coarse boundaries (an engine run, a job,
// a client call) get one span per call. Fine-grained boundaries that an
// engine crosses thousands of times per run (Step, Disrupt, Deltas, Pick)
// are folded into one span per operation and boundary: Start and End are
// the first call's start and the last call's end, Calls the number of
// calls and Busy the time spent inside them. A span's self time is its
// duration minus the Busy time of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  uint64 `json:"calls"`
	Busy   int64  `json:"busy_ns"`
}

// clock accumulates the calls folded into one aggregate span.
type clock struct {
	calls       uint64
	busy        time.Duration
	first, last time.Time
}

func (c *clock) since(start time.Time) {
	now := time.Now()
	if c.calls == 0 {
		c.first = start
	}
	c.calls++
	c.busy += now.Sub(start)
	c.last = now
}

// Boundaries folded into aggregate spans, indexed into tracer.clocks.
const (
	bStep = iota
	bDisrupt
	bDeltas
	bPick
	bBlock
	bMask
	nBoundaries
)

// Boundary calls that are counted but not timed, indexed into
// tracer.counts.
const (
	cStepCalls = iota
	cBatchCalls
	cDeliverCalls
	cOutputCalls
	cDisruptCalls
	cDeltasCalls
	cChurnEdges
	nCounts
)

var countNames = [nCounts]string{
	cStepCalls:    "protocol.step_calls",
	cBatchCalls:   "protocol.batch_calls",
	cDeliverCalls: "protocol.deliver_calls",
	cOutputCalls:  "protocol.output_calls",
	cDisruptCalls: "adversary.disrupt_calls",
	cDeltasCalls:  "churn.deltas_calls",
	cChurnEdges:   "churn.edges",
}

var boundaryNames = [nBoundaries]string{
	bStep:    "protocol.step",
	bDisrupt: "adversary.disrupt",
	bDeltas:  "churn.deltas",
	bPick:    "rendezvous.pick",
	bBlock:   "rendezvous.block",
	bMask:    "rendezvous.mask",
}

// tracer keeps spans in memory and sums them into the per-layer metrics.
// It is used by one goroutine at a time: the benchmark's closed loop.
type tracer struct {
	t0     time.Time
	spans  []span
	clocks [nBoundaries]clock
	counts [nCounts]uint64
	layer  map[string]float64
	// samples holds per-call latencies whose median a per-layer metric
	// reports.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layer: make(map[string]float64), samples: make(map[string][]float64)}
}

func (t *tracer) add(name string, v float64) { t.layer[name] += v }

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) record(parent int, name string, op int, start, end time.Time, calls uint64, busy time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Calls: calls, Busy: busy.Nanoseconds(),
	})
	return id
}

// engineRun records the span of one engine call (layer is "sim",
// "multihop" or "rendezvous") with the aggregate spans of the boundaries
// it crossed as children, adds run time, self time and boundary counts to
// the layer totals, and resets the clocks and counts for the next run.
func (t *tracer) engineRun(layer string, op int, start, end time.Time) {
	id := t.record(0, layer+".run", op, start, end, 1, end.Sub(start))
	self := end.Sub(start)
	for b := range t.clocks {
		c := &t.clocks[b]
		if c.calls == 0 {
			continue
		}
		t.record(id, boundaryNames[b], op, c.first, c.last, c.calls, c.busy)
		t.add(boundaryNames[b]+"_s", c.busy.Seconds())
		self -= c.busy
		*c = clock{}
	}
	for i, n := range t.counts {
		t.add(countNames[i], float64(n))
		t.counts[i] = 0
	}
	t.add(layer+".run_s", end.Sub(start).Seconds())
	t.add(layer+".self_s", self.Seconds())
}

// agents wraps an agent constructor so every agent it builds is traced.
func (t *tracer) agents(mk newAgentFunc) newAgentFunc {
	return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		a := mk(id, activation, r)
		if ba, ok := a.(sim.BatchAgent); ok {
			return &tracedBatchAgent{tracedAgent{a, t}, ba}
		}
		return &tracedAgent{a, t}
	}
}

// tracedAgent times Step and counts Deliver and Output calls. It forwards
// IsLeader so Result.Leaders is unchanged; every agent the workloads
// build reports leadership.
type tracedAgent struct {
	inner sim.Agent
	t     *tracer
}

func (a *tracedAgent) Step(local uint64) sim.Action {
	start := time.Now()
	act := a.inner.Step(local)
	a.t.clocks[bStep].since(start)
	a.t.counts[cStepCalls]++
	return act
}

func (a *tracedAgent) Deliver(m msg.Message) {
	a.t.counts[cDeliverCalls]++
	a.inner.Deliver(m)
}

func (a *tracedAgent) Output() sim.Output {
	a.t.counts[cOutputCalls]++
	return a.inner.Output()
}

func (a *tracedAgent) IsLeader() bool {
	lr, ok := a.inner.(sim.LeaderReporter)
	return ok && lr.IsLeader()
}

// tracedBatchAgent forwards the batch interface, so the engines keep
// stepping cohorts through StepBatch while traced. The inner Cohort key
// is returned unchanged; StepBatch is dispatched through one cohort
// member, whose inner agent advances the whole arena.
type tracedBatchAgent struct {
	tracedAgent
	batch sim.BatchAgent
}

func (a *tracedBatchAgent) Cohort() any { return a.batch.Cohort() }

func (a *tracedBatchAgent) StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	start := time.Now()
	a.batch.StepBatch(ids, locals, actFreq, actTx, actMsg)
	a.t.clocks[bStep].since(start)
	a.t.counts[cBatchCalls]++
}

type tracedAdversary struct {
	inner sim.Adversary
	t     *tracer
}

func (a *tracedAdversary) Disrupt(round uint64, hist *sim.History) *freqset.Set {
	start := time.Now()
	s := a.inner.Disrupt(round, hist)
	a.t.clocks[bDisrupt].since(start)
	a.t.counts[cDisruptCalls]++
	return s
}

type tracedChurn struct {
	inner multihop.ChurnModel
	t     *tracer
}

func (c *tracedChurn) Deltas(r uint64) (add, remove []multihop.Edge) {
	start := time.Now()
	add, remove = c.inner.Deltas(r)
	c.t.clocks[bDeltas].since(start)
	c.t.counts[cDeltasCalls]++
	c.t.counts[cChurnEdges] += uint64(len(add) + len(remove))
	return add, remove
}

// tracedStrategy forwards Prob, which the greedy jammer reads through
// rendezvous.Round.Strategies.
type tracedStrategy struct {
	inner rendezvous.Profiled
	t     *tracer
}

func (s *tracedStrategy) Pick(local uint64, r *rng.Rand) (int, bool) {
	start := time.Now()
	f, tx := s.inner.Pick(local, r)
	s.t.clocks[bPick].since(start)
	return f, tx
}

func (s *tracedStrategy) Prob(local uint64, f int) float64 { return s.inner.Prob(local, f) }

type tracedJammer struct {
	inner rendezvous.Jammer
	t     *tracer
}

func (j *tracedJammer) Block(rd *rendezvous.Round) *freqset.Set {
	start := time.Now()
	s := j.inner.Block(rd)
	j.t.clocks[bBlock].since(start)
	return s
}

type tracedMasks struct {
	inner rendezvous.MaskModel
	t     *tracer
}

func (m *tracedMasks) MaskDeltas(r uint64) (block, unblock [][2]int) {
	start := time.Now()
	block, unblock = m.inner.MaskDeltas(r)
	m.t.clocks[bMask].since(start)
	return block, unblock
}
