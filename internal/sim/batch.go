package sim

import "wsync/internal/msg"

// BatchAgent is optionally implemented by agents that can advance a whole
// cohort of same-constructor instances in one call, writing directly into
// the engine's struct-of-arrays action state. The engine groups awake nodes
// into cohorts by the Cohort key at activation and calls StepBatch once per
// cohort per round instead of making one virtual Step call (plus an Action
// copy) per node.
//
// Implementations must be observationally identical to calling Step on each
// cohort member in ascending id order: same frequency and transmit choices,
// same message payloads for transmitters, and — critically — the same
// per-node rng draws. The engines' differential tests
// (TestBatchStepMatchesPerNode) pin this byte for byte.
type BatchAgent interface {
	Agent
	// Cohort returns the key that decides which agents batch together: two
	// agents advance in the same StepBatch call iff their Cohort values
	// compare equal as interfaces. Returning nil opts the agent out of
	// batching (it is stepped through the per-node fallback). Arena-built
	// agents return their arena pointer, so one cohort is exactly one slab.
	Cohort() any
	// StepBatch advances every node in ids (ascending) for its local round
	// locals[j], storing node ids[j]'s choice at actFreq[ids[j]] and
	// actTx[ids[j]], and writing actMsg[ids[j]] only when it transmits —
	// stale message entries are never read by the resolver.
	StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message)
}

// cohort is one group of agents that advance together. rep is any
// member; StepBatch is dispatched through it.
type cohort struct {
	key    any
	rep    BatchAgent
	ids    []int
	locals []uint64
}

// batchCohorts maintains the cohort grouping for one engine run. Cohort
// membership is static — nodes never deactivate and never change cohort —
// so the grouping is computed incrementally at activation and each member
// list is kept sorted, preserving the per-node step order inside a cohort.
// Nodes whose agent does not batch (or that opted out) land on the solo
// list, also sorted, and are stepped through the per-node fallback.
type batchCohorts struct {
	n       int
	disable bool
	cohorts []cohort
	solo    []int
}

// newBatchCohorts returns an empty grouping over n nodes. With disable set,
// every node lands on the solo list — the Config.NoBatch escape hatch and
// the per-node leg of the differential tests.
func newBatchCohorts(n int, disable bool) *batchCohorts {
	return &batchCohorts{n: n, disable: disable, solo: make([]int, 0, n)}
}

// Add routes newly activated node i, with agent a, to its cohort (creating
// one for an unseen key) or to the solo list. Call it once per node, at
// activation.
func (b *batchCohorts) Add(i int, a Agent) {
	if !b.disable {
		if ba, ok := a.(BatchAgent); ok {
			if key := ba.Cohort(); key != nil {
				for ci := range b.cohorts {
					c := &b.cohorts[ci]
					if c.key == key {
						c.ids = insertSorted(c.ids, i)
						c.locals = append(c.locals, 0)
						return
					}
				}
				b.cohorts = append(b.cohorts, cohort{
					key:    key,
					rep:    ba,
					ids:    append(make([]int, 0, b.n), i),
					locals: make([]uint64, 1, b.n),
				})
				return
			}
		}
	}
	b.solo = insertSorted(b.solo, i)
}

// StepBatches advances every cohort for global round r: one StepBatch call
// per cohort, with per-member local rounds derived from activation.
func (b *batchCohorts) StepBatches(r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	for ci := range b.cohorts {
		c := &b.cohorts[ci]
		for j, id := range c.ids {
			c.locals[j] = r - activation[id] + 1
		}
		c.rep.StepBatch(c.ids, c.locals, actFreq, actTx, actMsg)
	}
}

// Solo returns the nodes outside every cohort, ascending. The engine steps
// them per node after the batched cohorts.
func (b *batchCohorts) Solo() []int { return b.solo }

// insertSorted inserts x into ascending slice s. Schedules overwhelmingly
// wake nodes in index order, so the append fast path covers almost every
// call; the shift handles explicit schedules that wake a low index late.
func insertSorted(s []int, x int) []int {
	if n := len(s); n == 0 || s[n-1] < x {
		return append(s, x)
	}
	s = append(s, x)
	j := len(s) - 1
	for j > 0 && s[j-1] > x {
		s[j] = s[j-1]
		j--
	}
	s[j] = x
	return s
}
