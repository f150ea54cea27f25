// Package coloring implements the weighted graph coloring of Section III-A
// of Busch et al. (IPPS 2020). A valid coloring assigns non-negative
// integer colors to vertices so that adjacent vertices' colors differ by at
// least their edge weight (Equation 1); in the scheduling application,
// vertices are transactions, edge weights are communication distances, and
// colors become execution times.
//
// GreedyColor realizes Lemma 1 (any uncolored vertex can receive a valid
// color at most 2Γ(v) − Δ(v) given an arbitrary valid partial coloring) and
// GreedyColorUniform realizes Lemma 2 (uniform weight β, colors multiples
// of β, bound Γ(v) up to one β term — see the note on that function).
package coloring

import (
	"fmt"
	"slices"

	"dtm/internal/graph"
)

// Color is a vertex color; in scheduling use it is a relative time offset.
type Color int64

// Uncolored marks a vertex with no assigned color.
const Uncolored = Color(-1)

// WEdge is a weighted half-edge of a conflict graph.
type WEdge struct {
	To VertexID
	W  graph.Weight
}

// VertexID indexes a vertex of a ConflictGraph.
type VertexID int

// ConflictGraph is a weighted undirected graph with a (partial) coloring.
// In the scheduling application it is the (extended) dependency graph H'_t.
type ConflictGraph struct {
	adj    [][]WEdge
	colors []Color
	forb   []Interval // reusable forbidden-interval scratch for GreedyColor*
}

// New returns a conflict graph with n uncolored vertices and no edges.
func New(n int) *ConflictGraph {
	cg := &ConflictGraph{}
	cg.Reset(n)
	return cg
}

// Reset reinitializes the graph to n uncolored vertices and no edges,
// reusing the existing adjacency storage. A Reset graph behaves exactly
// like one from New(n); schedulers that build one dependency graph per
// arrival use it to avoid reallocating every vertex slot.
func (cg *ConflictGraph) Reset(n int) {
	if cap(cg.adj) < n {
		cg.adj = make([][]WEdge, n)
		cg.colors = make([]Color, n)
	}
	cg.adj = cg.adj[:n]
	cg.colors = cg.colors[:n]
	for i := range cg.adj {
		cg.adj[i] = cg.adj[i][:0]
		cg.colors[i] = Uncolored
	}
}

// AddVertex appends one uncolored, isolated vertex and returns its ID.
func (cg *ConflictGraph) AddVertex() VertexID {
	v := VertexID(len(cg.adj))
	cg.adj = append(cg.adj, nil)
	cg.colors = append(cg.colors, Uncolored)
	return v
}

// RemoveVertex detaches v from the graph: every incident edge is removed
// from both endpoints and v reverts to an uncolored, isolated vertex. The
// vertex slot itself remains valid (IDs are stable) and can be rewired
// with AddEdge later.
func (cg *ConflictGraph) RemoveVertex(v VertexID) {
	if v < 0 || int(v) >= cg.N() {
		return
	}
	for _, e := range cg.adj[v] {
		peer := cg.adj[e.To]
		for i := range peer {
			if peer[i].To == v {
				peer[i] = peer[len(peer)-1]
				cg.adj[e.To] = peer[:len(peer)-1]
				break
			}
		}
	}
	cg.adj[v] = cg.adj[v][:0]
	cg.colors[v] = Uncolored
}

// N returns the number of vertices.
func (cg *ConflictGraph) N() int { return len(cg.adj) }

// AddEdge inserts an undirected edge of weight w >= 0. A weight-0 edge
// imposes no constraint (the paper allows co-located conflicting
// transactions to share a step) and is dropped.
func (cg *ConflictGraph) AddEdge(u, v VertexID, w graph.Weight) error {
	if u == v {
		return fmt.Errorf("coloring: self-loop at %d", u)
	}
	if int(u) >= cg.N() || int(v) >= cg.N() || u < 0 || v < 0 {
		return fmt.Errorf("coloring: edge {%d,%d} out of range", u, v)
	}
	if w < 0 {
		return fmt.Errorf("coloring: negative weight %d", w)
	}
	if w == 0 {
		return nil
	}
	cg.adj[u] = append(cg.adj[u], WEdge{To: v, W: w})
	cg.adj[v] = append(cg.adj[v], WEdge{To: u, W: w})
	return nil
}

// SetColor pre-assigns a color (e.g. the remaining time until an
// already-scheduled transaction executes).
func (cg *ConflictGraph) SetColor(v VertexID, c Color) {
	cg.colors[v] = c
}

// ColorOf returns v's color (Uncolored if unset).
func (cg *ConflictGraph) ColorOf(v VertexID) Color { return cg.colors[v] }

// Degree returns Δ(v), the number of incident (positive-weight) edges.
func (cg *ConflictGraph) Degree(v VertexID) int { return len(cg.adj[v]) }

// WeightedDegree returns Γ(v), the sum of incident edge weights.
func (cg *ConflictGraph) WeightedDegree(v VertexID) graph.Weight {
	var g graph.Weight
	for _, e := range cg.adj[v] {
		g += e.W
	}
	return g
}

// Interval is an inclusive range of forbidden colors, [Lo, Hi]. A colored
// neighbor u across an edge of weight w forbids the open interval
// (c(u)−w, c(u)+w), i.e. Interval{c(u)−w+1, c(u)+w−1}.
type Interval struct{ Lo, Hi Color }

// Forbid is the forbidden interval induced by a neighbor of color cu
// across an edge of weight w (Equation 1).
func Forbid(cu Color, w graph.Weight) Interval {
	return Interval{Lo: cu - Color(w) + 1, Hi: cu + Color(w) - 1}
}

// cmpIntervalLo orders intervals by their lower end for the sweep; the
// non-reflective slices sort keeps interface headers out of the per-color
// hot path.
func cmpIntervalLo(a, b Interval) int {
	switch {
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	default:
		return 0
	}
}

// SmallestValid returns the smallest non-negative color outside the union
// of the given forbidden intervals. It sorts forb in place (by Lo) and
// sweeps upward from 0; the result depends only on the interval set, not
// its order. This is the Lemma 1 color search, shared by the from-scratch
// graph (GreedyColor, which greedy's test-only rebuild reference colors
// with) and the incremental depgraph engine so the two can never disagree.
func SmallestValid(forb []Interval) Color {
	slices.SortFunc(forb, cmpIntervalLo)
	c := Color(0)
	for _, f := range forb {
		if f.Hi < c {
			continue
		}
		if f.Lo > c {
			break // gap found
		}
		c = f.Hi + 1
	}
	return c
}

// SmallestValidMultiple returns the smallest positive multiple of beta
// outside the union of the given forbidden intervals — the Lemma 2 color
// search. Like SmallestValid it sorts forb in place and is
// order-insensitive.
func SmallestValidMultiple(forb []Interval, beta graph.Weight) Color {
	slices.SortFunc(forb, cmpIntervalLo)
	c := Color(beta) // smallest candidate: k=1
	for _, f := range forb {
		if f.Hi < c {
			continue
		}
		if f.Lo > c {
			break
		}
		// Round the end of the forbidden block up to the next multiple.
		next := f.Hi + 1
		rem := next % Color(beta)
		if rem != 0 {
			next += Color(beta) - rem
		}
		c = next
	}
	return c
}

// gatherForb collects the forbidden intervals from v's colored neighbors
// into the graph's reusable scratch buffer.
func (cg *ConflictGraph) gatherForb(v VertexID) []Interval {
	forb := cg.forb[:0]
	for _, e := range cg.adj[v] {
		cu := cg.colors[e.To]
		if cu == Uncolored {
			continue
		}
		forb = append(forb, Forbid(cu, e.W))
	}
	cg.forb = forb[:0] // keep the (possibly grown) buffer
	return forb
}

// GreedyColor assigns v the smallest non-negative color valid against its
// already-colored neighbors, records it, and returns it. Lemma 1
// guarantees the result is at most 2Γ(v) − Δ(v).
func (cg *ConflictGraph) GreedyColor(v VertexID) Color {
	c := SmallestValid(cg.gatherForb(v))
	cg.colors[v] = c
	return c
}

// GreedyColorUniform assigns v the smallest positive multiple of beta that
// is valid against its already-colored neighbors, per Lemma 2. Edge weights
// need not all equal beta: the scheduler's extended dependency graph adds
// "current transaction" vertices whose edges carry a floor constraint
// (a ceil-to-β multiple of the object's travel time); those are honored too.
//
// Note on the bound: with Δ(v) colored neighbors all occupying distinct
// positive multiples of β, the smallest free positive multiple can be
// (Δ(v)+1)·β = Γ(v)+β, one β term above the Γ(v) stated in Lemma 2; the
// paper's scheduling theorems are asymptotically unaffected. Tests assert
// the ≤ Γ(v)+β bound for the all-weights-β case.
func (cg *ConflictGraph) GreedyColorUniform(v VertexID, beta graph.Weight) Color {
	c := SmallestValidMultiple(cg.gatherForb(v), beta)
	cg.colors[v] = c
	return c
}

// Validate checks Equation 1 for every edge whose endpoints are both
// colored: |c(u) − c(v)| >= w(u,v).
func (cg *ConflictGraph) Validate() error {
	for u := range cg.adj {
		cu := cg.colors[u]
		if cu == Uncolored {
			continue
		}
		for _, e := range cg.adj[u] {
			cv := cg.colors[e.To]
			if cv == Uncolored {
				continue
			}
			d := cu - cv
			if d < 0 {
				d = -d
			}
			if d < Color(e.W) {
				return fmt.Errorf("coloring: edge {%d,%d} weight %d violated by colors %d,%d",
					u, e.To, e.W, cu, cv)
			}
		}
	}
	return nil
}
