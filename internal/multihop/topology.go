package multihop

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"wsync/internal/rng"
)

// Topology is an undirected communication graph over nodes 0..N-1. Every
// constructor returns adjacency lists in ascending neighbor order — the
// deterministic order engine traces depend on and the sorted invariant
// the indexed medium resolver binary-searches on its bucket-walk path.
type Topology struct {
	n   int
	adj [][]int
}

// N returns the node count.
func (t *Topology) N() int { return t.n }

// Neighbors returns node i's neighbor list (shared slice; do not mutate).
func (t *Topology) Neighbors(i int) []int { return t.adj[i] }

// Degree returns node i's degree.
func (t *Topology) Degree(i int) int { return len(t.adj[i]) }

// newTopology allocates an empty graph under construction.
func newTopology(n int) *Topology {
	return &Topology{n: n, adj: make([][]int, n)}
}

// addEdge records the undirected edge (a, b) during construction; finish
// drops repeats.
func (t *Topology) addEdge(a, b int) {
	if a == b {
		panic("multihop: self-loop")
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// finish seals a constructed graph: it sorts every adjacency list
// ascending, establishing the neighbor order the medium resolver's
// binary search requires, and drops repeated edges, which sorting makes
// adjacent.
func (t *Topology) finish() *Topology {
	for i, nbrs := range t.adj {
		sort.Ints(nbrs)
		t.adj[i] = slices.Compact(nbrs)
	}
	return t
}

// HasEdge reports whether the undirected edge (a, b) is present in a
// sealed topology.
func (t *Topology) HasEdge(a, b int) bool {
	if a == b {
		return false
	}
	// Search from the lower-degree endpoint.
	if len(t.adj[a]) > len(t.adj[b]) {
		a, b = b, a
	}
	i := sort.SearchInts(t.adj[a], b)
	return i < len(t.adj[a]) && t.adj[a][i] == b
}

// InsertEdge adds the undirected edge (a, b) to a sealed topology in
// place, keeping both adjacency lists sorted — the delta half of the
// dynamic-topology API. It reports whether the edge was absent (and is now
// present); inserting a present edge is a no-op returning false. Amortized
// cost is O(degree) per endpoint with no allocation once the adjacency
// slices have grown to their working capacity, which is what keeps churned
// rounds on the engines' zero-alloc steady-state path.
func (t *Topology) InsertEdge(a, b int) bool {
	if a == b {
		panic("multihop: self-loop")
	}
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		panic(fmt.Sprintf("multihop: InsertEdge(%d, %d) outside [0, %d)", a, b, t.n))
	}
	i := sort.SearchInts(t.adj[a], b)
	if i < len(t.adj[a]) && t.adj[a][i] == b {
		return false
	}
	t.adj[a] = insertSortedAt(t.adj[a], i, b)
	t.adj[b] = insertSortedAt(t.adj[b], sort.SearchInts(t.adj[b], a), a)
	return true
}

// DeleteEdge removes the undirected edge (a, b) from a sealed topology in
// place. It reports whether the edge was present (and is now absent);
// deleting an absent edge is a no-op returning false. Like InsertEdge it
// never allocates and preserves the sorted-adjacency invariant.
func (t *Topology) DeleteEdge(a, b int) bool {
	if a == b {
		panic("multihop: self-loop")
	}
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		panic(fmt.Sprintf("multihop: DeleteEdge(%d, %d) outside [0, %d)", a, b, t.n))
	}
	i := sort.SearchInts(t.adj[a], b)
	if i >= len(t.adj[a]) || t.adj[a][i] != b {
		return false
	}
	t.adj[a] = removeSortedAt(t.adj[a], i)
	t.adj[b] = removeSortedAt(t.adj[b], sort.SearchInts(t.adj[b], a))
	return true
}

// insertSortedAt inserts x at position i, shifting the tail right. The
// append grows capacity only until the slice reaches its working size.
func insertSortedAt(s []int, i, x int) []int {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeSortedAt deletes position i, shifting the tail left. Capacity is
// retained for future inserts.
func removeSortedAt(s []int, i int) []int {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// Clone deep-copies a sealed topology. Engines that churn edges clone the
// configured topology so per-round delta mutations never reach the
// caller's graph (which may be shared across trials).
func (t *Topology) Clone() *Topology {
	c := &Topology{n: t.n, adj: make([][]int, t.n)}
	for i, nbrs := range t.adj {
		c.adj[i] = append([]int(nil), nbrs...)
	}
	return c
}

// EdgeCount returns the number of undirected edges.
func (t *Topology) EdgeCount() int {
	total := 0
	for i := range t.adj {
		total += len(t.adj[i])
	}
	return total / 2
}

// AppendEdges appends every undirected edge as a normalized (lo, hi) pair
// in lexicographic order and returns the extended slice — the snapshot the
// churn rebuild oracle and the mobility models diff against.
func (t *Topology) AppendEdges(dst []Edge) []Edge {
	for a := 0; a < t.n; a++ {
		for _, b := range t.adj[a] {
			if b > a {
				dst = append(dst, Edge{A: a, B: b})
			}
		}
	}
	return dst
}

// NewTopologyFromEdges builds a sealed topology over n nodes from an
// explicit undirected edge list. Duplicate edges (in either orientation)
// collapse; self-loops and out-of-range endpoints panic. Churn models use
// it to materialize layered or snapshot edge sets as real topologies.
func NewTopologyFromEdges(n int, edges []Edge) *Topology {
	if n < 1 {
		panic("multihop: NewTopologyFromEdges needs n >= 1")
	}
	t := newTopology(n)
	for _, e := range edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			panic(fmt.Sprintf("multihop: edge (%d, %d) outside [0, %d)", e.A, e.B, n))
		}
		t.addEdge(e.A, e.B)
	}
	return t.finish()
}

// Line returns the path topology 0—1—…—n−1 (diameter n−1).
func Line(n int) *Topology {
	if n < 1 {
		panic("multihop: Line needs n >= 1")
	}
	t := newTopology(n)
	for i := 0; i+1 < n; i++ {
		t.addEdge(i, i+1)
	}
	return t.finish()
}

// Grid returns the w×h grid topology with 4-neighborhoods.
func Grid(w, h int) *Topology {
	if w < 1 || h < 1 {
		panic("multihop: Grid needs positive dimensions")
	}
	t := newTopology(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				t.addEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				t.addEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return t.finish()
}

// Clique returns the complete graph — the single-hop special case, used to
// validate the engine against the single-hop simulator's semantics.
func Clique(n int) *Topology {
	if n < 1 {
		panic("multihop: Clique needs n >= 1")
	}
	t := newTopology(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.addEdge(i, j)
		}
	}
	return t.finish()
}

// RandomGeometric places n nodes uniformly in the unit square and connects
// pairs within the given radius. Deterministic in seed.
func RandomGeometric(n int, radius float64, seed uint64) *Topology {
	if n < 1 || radius <= 0 {
		panic("multihop: RandomGeometric needs n >= 1 and radius > 0")
	}
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	t := newTopology(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if math.Sqrt(dx*dx+dy*dy) <= radius {
				t.addEdge(i, j)
			}
		}
	}
	return t.finish()
}

// RandomGeometricConnected samples RandomGeometric graphs from seeds
// derived deterministically from seed until one is connected, and returns
// it. Above the connectivity threshold radius ≈ √(ln n / (π n)) almost
// every sample connects, so the loop nearly always returns on the first
// draw; it panics if 256 consecutive samples are disconnected (the radius
// is far below threshold — a configuration error).
func RandomGeometricConnected(n int, radius float64, seed uint64) *Topology {
	r := rng.New(seed)
	for attempt := 0; attempt < 256; attempt++ {
		t := RandomGeometric(n, radius, r.Uint64())
		if t.Connected() {
			return t
		}
	}
	panic(fmt.Sprintf("multihop: no connected RandomGeometric(n=%d, radius=%v) within 256 samples of seed %d",
		n, radius, seed))
}

// Connected reports whether the graph has a single connected component.
func (t *Topology) Connected() bool {
	if t.n == 0 {
		return true
	}
	seen := make([]bool, t.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range t.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == t.n
}

// Diameter returns the longest shortest path in hops (0 for a single node;
// it panics on disconnected graphs, which have no diameter).
func (t *Topology) Diameter() int {
	if !t.Connected() {
		panic("multihop: Diameter of disconnected graph")
	}
	best := 0
	dist := make([]int, t.n)
	queue := make([]int, 0, t.n)
	for s := 0; s < t.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range t.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					if dist[w] > best {
						best = dist[w]
					}
					queue = append(queue, w)
				}
			}
		}
	}
	return best
}

// String summarizes the topology.
func (t *Topology) String() string {
	edges := 0
	for i := range t.adj {
		edges += len(t.adj[i])
	}
	return fmt.Sprintf("topology(n=%d, edges=%d)", t.n, edges/2)
}
