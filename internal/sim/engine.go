package sim

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// totalNodeRounds accumulates active node-rounds over every completed run
// in this process. It exists for throughput accounting: wexp samples
// TotalNodeRounds around each experiment to derive the node-rounds/s
// figure recorded in the wsync-bench/v1 report.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of active node-rounds
// executed by completed Run calls. RunGraph leaves it alone: its callers
// (internal/multihop) keep their own count. The count is deterministic for
// a deterministic workload.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// engine is the one round loop behind Run and RunGraph. With a nil graph
// it is the single-hop clique of Section 2; with a graph, each listener
// hears only its neighbors. The two models share activation, the
// adversary, stepping, delivery and sync bookkeeping, and differ only in
// how receptions are classified (see resolve).
type engine struct {
	cfg *Config
	n   int

	// graph is the medium's topology, nil on the clique. update, if set,
	// returns round r's graph (nil when unchanged) before the round runs.
	graph  medium.Graph
	update func(r uint64) medium.Graph

	agents        []Agent    // nil until activation
	activation    []uint64   // per node
	agentRNG      []rng.Rand // one contiguous slab, pre-split at build
	maxActivation uint64

	// batch groups awake nodes into same-constructor cohorts (BatchAgent);
	// the round loop steps each cohort with one devirtualized StepBatch
	// call and falls back to per-node Step for the rest.
	batch *batchCohorts

	// Per-node action state in struct-of-arrays layout: the medium
	// resolvers' classification loops touch only the packed frequency and
	// transmit-flag arrays (5 bytes per node instead of a ~100-byte Action
	// with its embedded message), and the message payload is copied only
	// for transmitters — a stale actMsg entry is never read, because
	// delivery resolution consults it only for nodes with actTx set this
	// round.
	actFreq []int32       // per node: this round's frequency choice
	actTx   []bool        // per node: transmitting (vs listening) this round
	actMsg  []msg.Message // per node: payload, valid only for transmitters
	active  []bool        // per node

	// act tracks activation buckets and the sorted awake list; med is the
	// shared frequency-indexed resolver (internal/medium). Together they
	// make per-round activation and medium resolution cost O(awake), not
	// O(F + N).
	act *medium.Activation
	med *medium.Resolver

	// pending delivery per node for the current round; pendingList names
	// the nodes with hasPending set, in ascending order.
	pending     []msg.Message
	hasPending  []bool
	pendingList []int

	// per-frequency scratch (index 1..F) used only by the clique's scan
	// resolver, which sweeps all of [1..F] every round. Allocated lazily on
	// the first scan round, so the indexed path pays no O(F) setup memory.
	txCount []int
	txFrom  []NodeID

	emptySet *freqset.Set

	// record gates every write to rec. It is always set on the clique,
	// where rec doubles as History.Last for adaptive adversaries; on a
	// graph it is set only with observers, so unobserved runs skip all
	// record building.
	record bool
	hist   History
	rec    RoundRecord
	res    Result

	syncedCount    int
	activatedCount int
}

func newEngine(cfg *Config, g medium.Graph, update func(uint64) medium.Graph) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Schedule.N()
	if g != nil && g.N() != n {
		return nil, fmt.Errorf("sim: graph has %d nodes, schedule %d", g.N(), n)
	}
	e := &engine{
		cfg:        cfg,
		n:          n,
		graph:      g,
		update:     update,
		agents:     make([]Agent, n),
		activation: make([]uint64, n),
		agentRNG:   make([]rng.Rand, n),
		actFreq:    make([]int32, n),
		actTx:      make([]bool, n),
		actMsg:     make([]msg.Message, n),
		active:     make([]bool, n),
		pending:    make([]msg.Message, n),
		hasPending: make([]bool, n),
		emptySet:   freqset.New(cfg.F),
		batch:      newBatchCohorts(n, cfg.NoBatch),
		record:     g == nil || len(cfg.Observers) > 0,
	}
	master := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		e.activation[i] = cfg.Schedule.ActivationRound(i)
		master.SplitInto(uint64(i), &e.agentRNG[i])
	}
	e.act = medium.NewActivation(e.activation)
	e.maxActivation = e.act.Max()
	e.med = medium.NewResolver(cfg.F, n, g)
	e.hist = History{
		F:         cfg.F,
		Activated: make([]uint64, n),
		Received:  make([]bool, n),
	}
	e.rec.Disrupted = e.emptySet
	if e.record {
		e.rec.Actions = make([]ActionRecord, 0, n)
		e.rec.Deliveries = make([]Delivery, 0, n)
		e.rec.Outputs = make([]Output, n)
	}
	if g == nil {
		e.rec.Clear = make([]int, 0, 4)
	}
	if cfg.ProbeWeights {
		e.rec.Weights = make([]float64, n)
	}
	e.res = Result{
		SyncRound: make([]uint64, n),
		Activated: make([]uint64, n),
	}
	copy(e.res.Activated, e.activation)
	return e, nil
}

func (e *engine) maxRounds() uint64 {
	if e.cfg.MaxRounds > 0 {
		return e.cfg.MaxRounds
	}
	return DefaultMaxRounds
}

// activateRound brings up any nodes scheduled for round r.
func (e *engine) activateRound(r uint64) {
	for _, i := range e.act.Wake(r) {
		e.active[i] = true
		a := e.cfg.NewAgent(NodeID(i), r, &e.agentRNG[i])
		e.agents[i] = a
		e.batch.Add(i, a)
		e.hist.Activated[i] = r
		e.activatedCount++
	}
}

// resolve applies the medium semantics for round r given the actions of
// all active nodes, filling e.rec and the pending delivery buffers.
// disrupted is the adversary's validated set. On the clique each touched
// frequency is classified once (Clear, DisruptedLosses, and collisions per
// (round, frequency)); on a graph each listener is resolved against its
// neighborhood (collisions per (receiver, round)). The scan and indexed
// paths are bit-identical in every observable; see MediumPath.
func (e *engine) resolve(r uint64, disrupted *freqset.Set) {
	rec := &e.rec
	if e.record {
		rec.Round = r
		rec.Disrupted = disrupted
		rec.Actions = rec.Actions[:0]
		rec.Deliveries = rec.Deliveries[:0]
		rec.Clear = rec.Clear[:0]
	}

	// Only nodes on pendingList can have hasPending set, so clearing them
	// is equivalent to the legacy full sweep over all N.
	for _, i := range e.pendingList {
		e.hasPending[i] = false
	}
	e.pendingList = e.pendingList[:0]
	e.res.Stats.NodeRounds += uint64(len(e.act.Active()))

	switch {
	case e.cfg.Medium != MediumScan:
		e.resolveIndexed(r, disrupted)
	case e.graph == nil:
		e.resolveScan(r, disrupted)
	default:
		e.resolveScanGraph(disrupted)
	}

	if e.res.FirstClear != 0 && !e.hist.EverClear {
		e.hist.EverClear = true
		e.hist.FirstClear = e.res.FirstClear
	}
}

// noteAction validates node i's frequency, counts its transmission and
// records its action, returning the frequency. The scan resolvers use it;
// resolveIndexed repeats it inline.
func (e *engine) noteAction(i int) int {
	f, tx := int(e.actFreq[i]), e.actTx[i]
	if f < 1 || f > e.cfg.F {
		e.badFreq(i, f)
	}
	if tx {
		e.res.Stats.Transmissions++
	}
	if e.record {
		e.rec.Actions = append(e.rec.Actions, ActionRecord{Node: NodeID(i), Freq: f, Transmit: tx})
	}
	return f
}

// badFreq flags a protocol choosing an out-of-range frequency: a bug in
// the protocol, surfaced loudly.
func (e *engine) badFreq(i int, f int) {
	panic(fmt.Sprintf("sim: node %d chose frequency %d outside [1..%d]", i, f, e.cfg.F))
}

// resolveIndexed is the frequency-indexed fast path: one pass over the
// awake nodes feeds the shared resolver (internal/medium), then on the
// clique only the frequencies actually touched this round are classified,
// and each listener's reception is read off its frequency's transmitter
// bucket — intersected with its neighborhood on a graph. Per-round cost is
// O(active · log active) on the clique (the log is the touched-frequency
// sort that preserves the scan path's ascending Clear order), independent
// of F and N.
func (e *engine) resolveIndexed(r uint64, disrupted *freqset.Set) {
	med, record := e.med, e.record
	for _, i := range e.act.Active() {
		// noteAction's work, written out: this loop is the hot path.
		f, tx := int(e.actFreq[i]), e.actTx[i]
		if f < 1 || f > e.cfg.F {
			e.badFreq(i, f)
		}
		if record {
			e.rec.Actions = append(e.rec.Actions, ActionRecord{Node: NodeID(i), Freq: f, Transmit: tx})
		}
		if tx {
			med.Transmit(i, f)
			e.res.Stats.Transmissions++
		} else {
			med.Listen(i)
		}
	}

	if e.graph == nil {
		// The branch-free classify appends clear frequencies to rec.Clear
		// (which is [:0] at entry) in ascending order, matching the scan
		// path's [1..F] sweep bit for bit.
		var nCol, nJam int
		e.rec.Clear, nCol, nJam = med.ClassifyTouched(disrupted, e.rec.Clear)
		e.res.Stats.Collisions += uint64(nCol)
		e.res.Stats.DisruptedLosses += uint64(nJam)
		e.res.Stats.ClearBroadcasts += uint64(len(e.rec.Clear))
		if e.res.FirstClear == 0 && len(e.rec.Clear) > 0 {
			e.res.FirstClear = r
		}
	}

	// Listeners were collected in ascending node order. On the clique
	// every transmitter is a neighbor, so the per-frequency counts answer
	// directly; a graph intersects each bucket with the neighborhood.
	if e.graph == nil {
		for _, i := range med.Listeners() {
			f := int(e.actFreq[i])
			if med.Count(f) == 1 && !disrupted.Contains(f) {
				e.queueDelivery(i, f, NodeID(med.From(f)))
			}
		}
	} else {
		for _, i := range med.Listeners() {
			f := int(e.actFreq[i])
			from, count := med.Receive(i, f)
			if count >= 2 {
				e.res.Stats.Collisions++
			} else if count == 1 && !disrupted.Contains(f) {
				e.queueDelivery(i, f, NodeID(from))
			}
		}
	}
	med.Reset()
}

// resolveScan is the clique's legacy resolver: every round it zeroes and
// classifies all F frequency slots and walks all N schedule slots twice.
// It is kept as the differential-testing oracle for the indexed path.
func (e *engine) resolveScan(r uint64, disrupted *freqset.Set) {
	if e.txCount == nil {
		e.txCount = make([]int, e.cfg.F+1)
		e.txFrom = make([]NodeID, e.cfg.F+1)
	}
	for f := 1; f <= e.cfg.F; f++ {
		e.txCount[f] = 0
	}
	for i := 0; i < e.n; i++ {
		if !e.active[i] {
			continue
		}
		if f := e.noteAction(i); e.actTx[i] {
			e.txCount[f]++
			e.txFrom[f] = NodeID(i)
		}
	}

	// Classify frequencies and queue deliveries.
	for f := 1; f <= e.cfg.F; f++ {
		switch {
		case e.txCount[f] == 0:
		case e.txCount[f] >= 2:
			e.res.Stats.Collisions++
		case disrupted.Contains(f):
			e.res.Stats.DisruptedLosses++
		default:
			e.rec.Clear = append(e.rec.Clear, f)
			e.res.Stats.ClearBroadcasts++
			if e.res.FirstClear == 0 {
				e.res.FirstClear = r
			}
		}
	}

	// Queue deliveries to listeners on clear single-transmitter channels.
	for i := 0; i < e.n; i++ {
		if !e.active[i] || e.actTx[i] {
			continue
		}
		f := int(e.actFreq[i])
		if e.txCount[f] == 1 && !disrupted.Contains(f) {
			e.queueDelivery(i, f, e.txFrom[f])
		}
	}
}

// resolveScanGraph is the graph's legacy resolver: every listener walks
// its full neighbor list counting same-frequency transmitters. It is kept
// as the differential-testing oracle for the indexed path.
func (e *engine) resolveScanGraph(disrupted *freqset.Set) {
	for _, i := range e.act.Active() {
		e.noteAction(i)
	}
	for i := 0; i < e.n; i++ {
		if !e.active[i] || e.actTx[i] {
			continue
		}
		f := int(e.actFreq[i])
		txNeighbor := -1
		txCount := 0
		for _, w := range e.graph.Neighbors(i) {
			if e.active[w] && e.actTx[w] && int(e.actFreq[w]) == f {
				txCount++
				txNeighbor = w
			}
		}
		switch {
		case txCount == 0:
		case txCount >= 2:
			e.res.Stats.Collisions++
		case disrupted.Contains(f):
			// jammed: nothing heard
		default:
			e.queueDelivery(i, f, NodeID(txNeighbor))
		}
	}
}

// queueDelivery records the successful reception of node from's
// transmission on frequency f at listener i.
func (e *engine) queueDelivery(i int, f int, from NodeID) {
	e.pending[i] = e.deliverable(from)
	e.hasPending[i] = true
	e.pendingList = append(e.pendingList, i)
	e.hist.Received[i] = true
	if e.record {
		e.rec.Deliveries = append(e.rec.Deliveries, Delivery{From: from, To: NodeID(i), Freq: f})
	}
	e.res.Stats.Deliveries++
}

// deliverable returns the message node `from` transmitted this round,
// optionally forced through the wire codec.
func (e *engine) deliverable(from NodeID) msg.Message {
	m := e.actMsg[from]
	if !e.cfg.WireFidelity {
		return m
	}
	data, err := msg.Encode(m)
	if err != nil {
		panic(fmt.Sprintf("sim: node %d transmitted unencodable message: %v", from, err))
	}
	decoded, err := msg.Decode(data)
	if err != nil {
		panic(fmt.Sprintf("sim: wire round-trip failed for node %d: %v", from, err))
	}
	return decoded
}

// recordOutputs updates sync bookkeeping and, when recording, stores
// every awake node's post-round output. Inactive nodes' entries stay the
// zero Output they were allocated with (nodes never deactivate). Without
// a record only unsynced nodes are asked: Output is a pure getter.
func (e *engine) recordOutputs(r uint64) {
	outputs, syncRound := e.rec.Outputs, e.res.SyncRound // outputs is nil unless recording
	for _, i := range e.act.Active() {
		if outputs == nil && syncRound[i] != 0 {
			continue
		}
		out := e.agents[i].Output()
		if outputs != nil {
			outputs[i] = out
		}
		if out.Synced && syncRound[i] == 0 {
			syncRound[i] = r
			e.syncedCount++
		}
	}
}

// observeAndCheckStop runs observers and reports whether the run should
// stop after round r. History.Last is set only on the clique: per-frequency
// history is a single-hop notion, and graph runs leave it nil.
func (e *engine) observeAndCheckStop(r uint64) bool {
	e.res.Stats.Rounds = r
	e.hist.Completed = r
	if e.graph == nil {
		e.hist.Last = &e.rec
	}
	for _, ob := range e.cfg.Observers {
		ob.ObserveRound(&e.rec)
	}
	if e.cfg.StopWhen != nil && e.cfg.StopWhen(&e.hist) {
		return true
	}
	if e.cfg.RunToMaxRounds {
		return false
	}
	return r >= e.maxActivation && e.syncedCount == e.n
}

// disruptedSet obtains and validates the adversary's choice for round r.
func (e *engine) disruptedSet(r uint64) *freqset.Set {
	if e.cfg.Adversary == nil {
		return e.emptySet
	}
	s := e.cfg.Adversary.Disrupt(r, &e.hist)
	if s == nil {
		return e.emptySet
	}
	if s.Len() > e.cfg.T {
		panic(fmt.Sprintf("sim: adversary disrupted %d frequencies, budget is %d", s.Len(), e.cfg.T))
	}
	return s
}

// finalize fills the summary fields of the result.
func (e *engine) finalize(hitMax bool) *Result {
	e.res.HitMaxRounds = hitMax
	e.res.AllSynced = e.syncedCount == e.n && e.activatedCount == e.n
	for i := 0; i < e.n; i++ {
		if e.res.SyncRound[i] != 0 {
			local := e.res.SyncRound[i] - e.activation[i] + 1
			if local > e.res.MaxSyncLocal {
				e.res.MaxSyncLocal = local
			}
		}
	}
	for i := 0; i < e.n; i++ {
		if lr, ok := e.agents[i].(LeaderReporter); ok && lr.IsLeader() {
			e.res.Leaders++
		}
	}
	return &e.res
}

// runRound executes one round end to end — graph update, activation, the
// adversary, agent steps, medium resolution, deliveries, and output
// bookkeeping — and reports whether the run should stop. After warm-up
// (all nodes awake, every reused buffer at its high-water capacity) a
// round performs zero heap allocations; TestSteadyStateAllocs pins this.
func (e *engine) runRound(r uint64) (stop bool) {
	if e.update != nil {
		if g := e.update(r); g != nil {
			e.graph = g
			e.med.SetGraph(g)
		}
	}
	e.activateRound(r)
	disrupted := e.disruptedSet(r)
	if w := e.rec.Weights; w != nil {
		// Each node's pre-Step broadcast probability.
		for _, i := range e.act.Active() {
			w[i] = 0
			if bp, ok := e.agents[i].(BroadcastProber); ok {
				w[i] = bp.BroadcastProb()
			}
		}
	}
	e.batch.StepBatches(r, e.activation, e.actFreq, e.actTx, e.actMsg)
	for _, i := range e.batch.Solo() {
		a := e.agents[i].Step(r - e.activation[i] + 1)
		e.actFreq[i] = int32(a.Freq)
		e.actTx[i] = a.Transmit
		if a.Transmit {
			e.actMsg[i] = a.Msg
		}
	}
	e.resolve(r, disrupted)
	for _, i := range e.pendingList {
		e.agents[i].Deliver(e.pending[i])
	}
	e.recordOutputs(r)
	return e.observeAndCheckStop(r)
}

func run(cfg *Config, g medium.Graph, update func(uint64) medium.Graph) (*Result, error) {
	e, err := newEngine(cfg, g, update)
	if err != nil {
		return nil, err
	}
	limit := e.maxRounds()
	for r := uint64(1); r <= limit; r++ {
		if e.runRound(r) {
			return e.finalize(false), nil
		}
	}
	return e.finalize(true), nil
}

// Run executes the single-hop simulation and returns its result. It
// returns an error only for invalid configurations; model violations by
// protocols or adversaries (out-of-range frequencies, over-budget
// disruption) panic, as they are programming errors.
func Run(cfg *Config) (*Result, error) {
	res, err := run(cfg, nil, nil)
	if err == nil {
		totalNodeRounds.Add(res.Stats.NodeRounds)
	}
	return res, err
}

// RunGraph executes the simulation on a multi-hop medium: a listener on
// frequency f receives iff exactly one of its neighbors in g transmitted
// on f and f is not disrupted. update, if non-nil, is called at the start
// of every round r and returns the graph for that round, or nil to keep
// the current one; the engine never mutates a graph. g must cover exactly
// the schedule's nodes.
//
// Per-frequency outcomes are a single-hop notion, so on a graph
// RoundRecord.Clear stays nil, History.Last stays nil, and Result.Stats
// reports collisions per (receiver, round) and no clear broadcasts or
// disrupted losses. Records are built only when cfg has observers. Unlike
// Run, RunGraph does not add to TotalNodeRounds.
func RunGraph(cfg *Config, g medium.Graph, update func(r uint64) medium.Graph) (*Result, error) {
	if g == nil {
		return nil, errors.New("sim: RunGraph needs a graph")
	}
	return run(cfg, g, update)
}
