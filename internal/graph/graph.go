// Package graph provides the weighted-graph substrate for the distributed
// transactional memory model of Busch et al. (IPPS 2020): communication
// graphs G = (V, E, w) with positive integer edge weights, shortest-path
// machinery (distances, routing next hops, explicit paths), diameter, and
// metric-closure minimum spanning trees used by the lower-bound estimators.
//
// Shortest paths come from per-source trees built with a monotone radix
// heap, one code path for every weight. Routing is deterministic: the
// parent of v is its smallest-ID neighbour on a shortest path, which depends
// on the distances alone, so each node's first hop is fixed when the node is
// settled and no order of equal heap keys can change a route. A cached tree
// keeps 12 bytes per node, the distance and the int32 first hop; Path
// recomputes parents along the one path it walks.
//
// All query methods are safe for concurrent use; shortest-path trees are
// computed lazily per source and cached, and trees for distinct sources
// build concurrently (per-source build locks), so the parallel engines'
// compute phases can warm a topology's tree set with near-linear scaling.
// AddEdge must not race with queries: construct first, then query.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node of a Graph. Nodes are numbered 0..N()-1.
type NodeID int

// Weight is an edge weight or a path distance, in time steps.
// Sending a message (or moving an object) across an edge e takes w(e) steps.
type Weight int64

// Infinite is returned by Dist for unreachable node pairs.
const Infinite = Weight(1) << 62

// Edge is a directed half-edge in an adjacency list.
type Edge struct {
	To NodeID
	W  Weight
}

// Graph is an undirected weighted graph with positive integer edge weights.
// The zero value is not usable; construct with New.
type Graph struct {
	name string
	adj  [][]Edge
	nbr  []map[NodeID]int // per-node: neighbor -> index into adj[u]
	m    int

	mu    sync.RWMutex             // write: edge insertion; read: in-flight tree builds
	build []sync.Mutex             // per-source build locks: distinct sources build concurrently
	trees []atomic.Pointer[spTree] // lazily built shortest-path tree per source
}

// spTree is the shortest-path tree rooted at one source. Parents are not
// stored: the parent of v is its smallest-ID neighbour u with
// dist[u] + w(u,v) = dist[v], which Path recomputes along the one path it
// walks.
type spTree struct {
	dist []Weight
	hop  []int32 // first node after the source on the path to v; read only for reachable v != source
}

// New returns an empty graph with n nodes and no edges.
func New(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: node count must be positive, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d exceeds %d", n, math.MaxInt32)
	}
	return &Graph{
		adj:   make([][]Edge, n),
		nbr:   make([]map[NodeID]int, n),
		build: make([]sync.Mutex, n),
		trees: make([]atomic.Pointer[spTree], n),
	}, nil
}

// MustNew is New for statically valid sizes; it panics on error.
func MustNew(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the topology name, if one was set by a constructor.
func (g *Graph) Name() string { return g.name }

// SetName labels the graph (used in experiment output).
func (g *Graph) SetName(name string) { g.name = name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge {u, v} of weight w. It is an error to
// add a self-loop, an out-of-range endpoint, a non-positive weight, or a
// weight of Infinite/N() or more: below that bound no simple path reaches
// Infinite, so every reachable pair has a finite distance.
// Parallel edges are coalesced, keeping the smaller weight.
func (g *Graph) AddEdge(u, v NodeID, w Weight) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.N())
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", u, v, w)
	}
	if w >= Infinite/Weight(g.N()) {
		return fmt.Errorf("graph: edge {%d,%d} weight %d is not below Infinite/%d", u, v, w, g.N())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.trees {
		g.trees[i].Store(nil) // invalidate caches
	}
	// Neighbor maps keep edge insertion O(1) instead of a linear adjacency
	// scan, which made dense-topology construction quadratic.
	if g.nbr[u] == nil {
		g.nbr[u] = make(map[NodeID]int)
	}
	if g.nbr[v] == nil {
		g.nbr[v] = make(map[NodeID]int)
	}
	if i, ok := g.nbr[u][v]; ok {
		if w < g.adj[u][i].W {
			g.adj[u][i].W = w
			g.adj[v][g.nbr[v][u]].W = w
		}
		return nil
	}
	g.nbr[u][v] = len(g.adj[u])
	g.nbr[v][u] = len(g.adj[v])
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
	g.m++
	return nil
}

func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.N() }

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified.
func (g *Graph) Neighbors(u NodeID) []Edge {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (Weight, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	if i, ok := g.nbr[u][v]; ok {
		return g.adj[u][i].W, true
	}
	return 0, false
}

// tree returns the cached shortest-path tree rooted at src, building it if
// needed. The read path is a single atomic pointer load — Dist/NextHop sit
// on the hot path of every simulation step, and even an uncontended RLock
// showed up in profiles — so concurrent sweep cells sharing one topology
// answer queries without synchronizing. A cache miss takes only the
// per-source build lock (re-checking under it), so the parallel compute
// phases build trees for distinct sources concurrently; the graph-wide
// RLock held across the build and the store keeps an AddEdge from
// interleaving between a build and its publication. A cached tree is 12
// bytes per node: the dist row and the int32 first-hop row.
func (g *Graph) tree(src NodeID) *spTree {
	if t := g.trees[src].Load(); t != nil {
		return t
	}
	g.build[src].Lock()
	defer g.build[src].Unlock()
	if t := g.trees[src].Load(); t != nil {
		return t
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	t := g.shortestPaths(src)
	//par:owned g.trees per-source build locks serialize each slot and the atomic publication is idempotent: concurrent compute phases read either nil (and build the identical tree) or the finished tree
	g.trees[src].Store(t)
	return t
}

// shortestPaths computes the shortest-path tree rooted at src with a
// monotone radix heap. The tree's parent of v is its smallest-ID
// predecessor, min{u : dist[u] + w(u,v) = dist[v]}, a function of the
// distances alone. Every such u is strictly closer than v, so it is settled
// before v; the scan that relaxes v's neighbours when v is settled also
// finds that predecessor and fixes hop[v] from it. The order in which the
// heap hands out equal keys therefore cannot change a route.
func (g *Graph) shortestPaths(src NodeID) *spTree {
	n := g.N()
	t := &spTree{dist: make([]Weight, n), hop: make([]int32, n)}
	for i := range t.dist {
		t.dist[i] = Infinite
	}
	t.dist[src] = 0
	h := newRadixHeap(t.dist)
	h.push(int32(src))
	for {
		u, ok := h.pop()
		if !ok {
			return t
		}
		du := t.dist[u]
		pred := int32(-1)
		for _, e := range g.adj[u] {
			x := int32(e.To)
			switch nd := du + e.W; {
			case nd < t.dist[x]:
				h.decrease(x, nd)
			case t.dist[x]+e.W == du && (pred < 0 || x < pred):
				pred = x
			}
		}
		if pred == int32(src) {
			t.hop[u] = u
		} else if pred >= 0 { // pred is -1 only at the source
			t.hop[u] = t.hop[pred]
		}
	}
}

// radixHeap is a monotone priority queue of node IDs keyed by a tree's dist
// row. A queued node sits in bucket bits.Len64(key ^ last), where last is
// the key most recently popped; popping from an empty bucket 0 moves the
// smallest non-empty bucket down around its minimum key. Buckets are
// intrusive doubly linked lists over one []int32 scratch (next, prev and
// bucket per node), so push, decrease-key and pop never allocate. Keys stay
// below Infinite = 2^62 (AddEdge bounds every edge weight so no simple path
// reaches it), so 63 buckets suffice.
type radixHeap struct {
	key              []Weight
	next, prev, slot []int32 // slot is the node's bucket, -1 when not queued
	head             [63]int32
	nonEmpty         uint64 // bit b set when bucket b holds a node
	last             Weight
}

func newRadixHeap(key []Weight) radixHeap {
	n := len(key)
	scratch := make([]int32, 3*n)
	h := radixHeap{key: key, next: scratch[:n], prev: scratch[n : 2*n], slot: scratch[2*n:]}
	for i := range h.slot {
		h.slot[i] = -1
	}
	for b := range h.head {
		h.head[b] = -1
	}
	return h
}

func (h *radixHeap) bucket(k Weight) int32 {
	return int32(bits.Len64(uint64(k ^ h.last)))
}

// push queues v under its current key.
func (h *radixHeap) push(v int32) {
	b := h.bucket(h.key[v])
	h.slot[v], h.prev[v], h.next[v] = b, -1, h.head[b]
	if h.head[b] >= 0 {
		h.prev[h.head[b]] = v
	}
	h.head[b] = v
	h.nonEmpty |= 1 << b
}

func (h *radixHeap) unlink(v int32) {
	b, p, nx := h.slot[v], h.prev[v], h.next[v]
	if p >= 0 {
		h.next[p] = nx
	} else if h.head[b] = nx; nx < 0 {
		h.nonEmpty &^= 1 << b
	}
	if nx >= 0 {
		h.prev[nx] = p
	}
	h.slot[v] = -1
}

// decrease lowers v's key to k (k >= last), queueing v if it was not.
func (h *radixHeap) decrease(v int32, k Weight) {
	h.key[v] = k
	if b := h.slot[v]; b >= 0 {
		if b == h.bucket(k) {
			return
		}
		h.unlink(v)
	}
	h.push(v)
}

// pop removes and returns a node of minimum key; ok is false when the heap
// is empty.
func (h *radixHeap) pop() (v int32, ok bool) {
	if h.nonEmpty == 0 {
		return -1, false
	}
	if h.head[0] < 0 {
		b := bits.TrailingZeros64(h.nonEmpty)
		first := h.head[b]
		lo := h.key[first]
		for x := h.next[first]; x >= 0; x = h.next[x] {
			if h.key[x] < lo {
				lo = h.key[x]
			}
		}
		h.head[b] = -1
		h.nonEmpty &^= 1 << b
		h.last = lo
		for x := first; x >= 0; {
			nx := h.next[x]
			h.push(x)
			x = nx
		}
	}
	v = h.head[0]
	h.unlink(v)
	return v, true
}

// Dist returns the shortest-path distance from u to v, or Infinite if v is
// unreachable from u.
func (g *Graph) Dist(u, v NodeID) Weight {
	if !g.valid(u) || !g.valid(v) {
		return Infinite
	}
	return g.tree(u).dist[v]
}

// NextHop returns the first node after u on the (deterministic) shortest path
// from u to v. It returns u itself when u == v, and -1 when v is unreachable.
func (g *Graph) NextHop(u, v NodeID) NodeID {
	if u == v {
		return u
	}
	if !g.valid(u) || !g.valid(v) {
		return -1
	}
	t := g.tree(u)
	if t.dist[v] == Infinite {
		return -1
	}
	return NodeID(t.hop[v])
}

// Path returns the node sequence of the deterministic shortest path from u to
// v, inclusive of both endpoints. It returns nil when v is unreachable. The
// path walks back from v through each node's smallest-ID predecessor, read
// off the tree's dist row and the adjacency list.
func (g *Graph) Path(u, v NodeID) []NodeID {
	if !g.valid(u) || !g.valid(v) {
		return nil
	}
	if u == v {
		return []NodeID{u}
	}
	t := g.tree(u)
	if t.dist[v] == Infinite {
		return nil
	}
	rev := []NodeID{v}
	for cur := v; cur != u; rev = append(rev, cur) {
		pred := NodeID(-1)
		for _, e := range g.adj[cur] {
			if t.dist[e.To]+e.W == t.dist[cur] && (pred < 0 || e.To < pred) {
				pred = e.To
			}
		}
		cur = pred
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Eccentricity returns the maximum finite distance from u to any node, or
// Infinite if some node is unreachable.
func (g *Graph) Eccentricity(u NodeID) Weight {
	t := g.tree(u)
	var ecc Weight
	for _, d := range t.dist {
		if d == Infinite {
			return Infinite
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum shortest-path distance over all node pairs,
// or Infinite for a disconnected graph.
func (g *Graph) Diameter() Weight {
	var dia Weight
	for u := 0; u < g.N(); u++ {
		e := g.Eccentricity(NodeID(u))
		if e == Infinite {
			return Infinite
		}
		if e > dia {
			dia = e
		}
	}
	return dia
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	return g.Eccentricity(0) != Infinite
}

// Ball returns the set of nodes within distance r of u (including u),
// sorted by node ID.
func (g *Graph) Ball(u NodeID, r Weight) []NodeID {
	t := g.tree(u)
	var out []NodeID
	for v, d := range t.dist {
		if d <= r {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// MetricMST returns the weight of a minimum spanning tree of the metric
// closure restricted to the given nodes. Duplicate nodes are ignored.
//
// Because any walk visiting all of nodes is at least as long as such a tree,
// MetricMST lower-bounds the travel time of a single mobile object that must
// visit every node in the set. It returns 0 for fewer than two distinct
// nodes and Infinite if the set is not mutually reachable.
func (g *Graph) MetricMST(nodes []NodeID) Weight {
	set := make(map[NodeID]bool, len(nodes))
	for _, v := range nodes {
		set[v] = true
	}
	distinct := make([]NodeID, 0, len(set))
	for v := range set {
		distinct = append(distinct, v)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	if len(distinct) < 2 {
		return 0
	}
	// Prim's algorithm on the metric closure.
	const unseen = Infinite
	best := make([]Weight, len(distinct))
	inTree := make([]bool, len(distinct))
	for i := range best {
		best[i] = unseen
	}
	best[0] = 0
	var total Weight
	for range distinct {
		sel := -1
		for i, b := range best {
			if !inTree[i] && (sel == -1 || b < best[sel]) {
				sel = i
			}
		}
		if best[sel] == Infinite {
			return Infinite
		}
		inTree[sel] = true
		total += best[sel]
		t := g.tree(distinct[sel])
		for i, v := range distinct {
			if !inTree[i] && t.dist[v] < best[i] {
				best[i] = t.dist[v]
			}
		}
	}
	return total
}

// MaxEdgeWeight returns the largest edge weight in the graph (0 for an
// edgeless graph).
func (g *Graph) MaxEdgeWeight() Weight {
	var mw Weight
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.W > mw {
				mw = e.W
			}
		}
	}
	return mw
}

// MinEdgeWeight returns the smallest edge weight in the graph (0 for an
// edgeless graph).
func (g *Graph) MinEdgeWeight() Weight {
	var mw Weight
	first := true
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if first || e.W < mw {
				mw = e.W
				first = false
			}
		}
	}
	return mw
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s(n=%d, m=%d)", name, g.N(), g.M())
}
