// Package greedy implements Algorithm 1 of Busch et al. (IPPS 2020): the
// online greedy schedule. At each arrival time the newly generated
// transactions are inserted into the extended dependency graph H'_t —
// whose vertices are the live transactions plus a "current transaction" for
// each object's present position (including the artificial node for objects
// in transit) — and are greedily assigned valid colors, which translate
// directly into execution times.
//
// Two modes are provided:
//
//   - General weights (Theorem 1): colors are found with Lemma 1, so each
//     transaction generated at time t executes by t + 2Γ'_t(T) − Δ'_t(T).
//   - Uniform weights (Theorem 2): the graph is overlaid with a uniform
//     weight β (for the hypercube, β = log n — Section III-D), decisions
//     are quantized to epochs that are multiples of β, and colors are
//     found with Lemma 2, so each transaction executes by its epoch + Γ'.
package greedy

import (
	"cmp"
	"fmt"
	"slices"

	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/par"
	"dtm/internal/sched"
)

// Options configure the greedy scheduler.
type Options struct {
	// Uniform selects Theorem 2 mode: all conflict edges are overlaid with
	// weight Beta and decisions happen on multiples of Beta.
	Uniform bool
	// Beta is the uniform overlay weight; if zero in Uniform mode, the
	// graph diameter is used (the hypercube analysis of Section III-D).
	Beta graph.Weight
	// Hub, when set, models the Section III-E funnel: every execution time
	// is floored by the distance from the hub to the transaction's node
	// (the scheduling decision must reach the transaction). Used by
	// Coordinator.
	Hub *graph.NodeID
	// Pad (>= 1) multiplies every dependency-graph edge weight, spacing
	// executions out by that factor. An extension for the paper's
	// bounded-link-capacity open problem: padded schedules leave slack for
	// objects that queue at saturated links, trading nominal latency for
	// fewer congestion stalls (experiment F13). Zero means 1 (no padding).
	Pad int
}

func (o Options) pad() graph.Weight {
	if o.Pad <= 1 {
		return 1
	}
	return graph.Weight(o.Pad)
}

// Audit accumulates the per-transaction Theorem 1/2 bound checks.
type Audit struct {
	Scheduled   int
	WithinBound int // transactions whose color met the theorem bound
	MaxColor    coloring.Color
	MaxBound    coloring.Color
}

// Greedy is the online greedy scheduler. Create with New; it implements
// sched.Scheduler.
type Greedy struct {
	opts Options
	env  *sched.Env
	beta graph.Weight

	// The persistent conflict index over H'_t.
	idx     *depgraph.Index
	scratch *depgraph.Scratch
	// par fans the per-transaction gather (forbidden intervals, bound
	// terms) out over the run's phase-runner (nil runs it inline); every
	// Decide/metric/audit mutation stays in the ID-ordered merge, so
	// schedules are byte-identical at every worker count. gs is the
	// gather output, reused across batches.
	par *par.Runner
	gs  []gathered

	buffer []*core.Transaction // Uniform mode: awaiting epoch
	audit  Audit

	// Instrument handles; nil (free) when observability is disabled.
	metScheduled *obs.Counter   // greedy.colors_assigned
	metWithin    *obs.Counter   // greedy.within_bound
	metColor     *obs.Histogram // greedy.color: assigned color = delay
}

// New returns a greedy scheduler with the given options.
func New(opts Options) *Greedy {
	return &Greedy{opts: opts}
}

// Name implements sched.Scheduler.
func (g *Greedy) Name() string {
	name := "greedy"
	if g.opts.Uniform {
		name = fmt.Sprintf("greedy-uniform(beta=%d)", g.beta)
	}
	if g.opts.Pad > 1 {
		name += fmt.Sprintf("+pad%d", g.opts.Pad)
	}
	return name
}

// Audit returns the theorem-bound audit collected so far.
func (g *Greedy) Audit() Audit { return g.audit }

// Start implements sched.Scheduler.
func (g *Greedy) Start(env *sched.Env) error {
	g.env = env
	g.metScheduled = env.Obs.Counter(obs.NameGreedyColorsAssigned)
	g.metWithin = env.Obs.Counter(obs.NameGreedyWithinBound)
	g.metColor = env.Obs.Histogram(obs.NameGreedyColor, obs.PowersOfTwo(16))
	g.idx = depgraph.NewIndex(env.Sim)
	g.idx.RegisterMetrics(env.Obs)
	g.scratch = env.Scratch
	if g.scratch == nil {
		g.scratch = depgraph.GetScratch()
	}
	g.par = env.Par
	g.beta = g.opts.Beta
	if g.opts.Uniform {
		if g.beta == 0 {
			g.beta = env.G.Diameter()
		}
		if g.beta < env.G.Diameter() {
			return fmt.Errorf("greedy: uniform overlay beta=%d below graph diameter %d", g.beta, env.G.Diameter())
		}
	}
	return nil
}

// OnArrive implements sched.Scheduler: in general mode transactions are
// scheduled immediately; in uniform mode they wait for the next epoch.
func (g *Greedy) OnArrive(txns []*core.Transaction) error {
	if g.opts.Uniform {
		g.buffer = append(g.buffer, txns...)
		return nil
	}
	return g.schedule(txns)
}

// NextWake implements sched.Scheduler.
func (g *Greedy) NextWake() (core.Time, bool) {
	if !g.opts.Uniform || len(g.buffer) == 0 {
		return 0, false
	}
	now := g.env.Sim.Now()
	b := core.Time(g.beta)
	next := (now + b - 1) / b * b
	return next, true
}

// OnWake implements sched.Scheduler: uniform mode schedules the buffered
// transactions at the epoch boundary.
func (g *Greedy) OnWake() error {
	txns := g.buffer
	g.buffer = nil
	return g.schedule(txns)
}

// ScheduleBatch schedules the given (arrived, undecided) transactions
// immediately against the current extended dependency graph. Exposed for
// the Section III-E Coordinator, which delays and floors decisions.
func (g *Greedy) ScheduleBatch(txns []*core.Transaction) error {
	return g.schedule(txns)
}

// schedule colors the new transactions against the extended dependency
// graph H'_t and fixes their execution times: prune-by-expiry, insert the
// batch into the object postings, then color each transaction from its
// posting neighborhood. The greedy color depends only on the set of
// forbidden intervals, so it equals the color a from-scratch rebuild of
// H'_t assigns (the package's differential test pins this).
func (g *Greedy) schedule(txns []*core.Transaction) error {
	if len(txns) == 0 {
		return nil
	}
	now := g.env.Sim.Now()
	g.idx.Refresh(now)
	sc := g.scratch

	// Insert every new transaction before coloring any, so same-batch
	// conflicts are visible from both sides. Color in ID order.
	sorted := append(sc.Txns[:0], txns...)
	slices.SortFunc(sorted, func(a, b *core.Transaction) int { return cmp.Compare(a.ID, b.ID) })
	slots := sc.Slots[:0]
	for _, tx := range sorted {
		slots = append(slots, g.idx.Insert(tx))
	}

	err := g.colorBatch(sorted, slots, now, sc)
	sc.Slots = slots[:0]
	sc.Txns = sorted[:0]
	return err
}

// gathered is one transaction's gather-phase output: spans into its
// worker's scratch arenas — the forbidden intervals known before any of
// the batch is decided (Forb), and the same-batch smaller-ID neighbors
// whose intervals only exist after the merge decides them (Ints, as
// (txID, weight) pairs) — plus the Δ/Γ bound terms, which are complete
// at gather time because undecided neighbors count toward them too.
type gathered struct {
	worker  int
	forbOff int
	forbLen int
	pendOff int // in (txID, weight) pairs
	pendLen int
	deg     int
	wdeg    graph.Weight
}

// colorBatch colors an inserted batch in two phases (DESIGN.md §12). The
// per-transaction gathers (graph distances, Z edges, conflict-index
// neighborhoods) are read-only once the whole batch is inserted, so they
// fan out over the run's phase-runner into per-worker arenas; on the nil
// runner they run inline. The merge then walks the batch in ID order,
// resolves the pending same-batch intervals from the decisions it has
// just made, and performs the audit/Decide/SetDecided sequence. The
// coloring sweeps sort their interval set internally, so appending the
// pending intervals last cannot change any color.
func (g *Greedy) colorBatch(sorted []*core.Transaction, slots []depgraph.Slot, now core.Time, sc *depgraph.Scratch) error {
	ss := depgraph.GetScratchN(g.par.Workers())
	defer depgraph.ReleaseAll(ss)
	if cap(g.gs) < len(sorted) {
		g.gs = make([]gathered, len(sorted))
	}
	gs := g.gs[:len(sorted)]
	g.par.Map(len(sorted), func(i, w int) {
		tx := sorted[i]
		wsc := ss[w]
		gr := gathered{worker: w, forbOff: len(wsc.Forb), pendOff: len(wsc.Ints) / 2}
		// Weight-0 edges impose no constraint and are dropped (as
		// coloring.AddEdge drops them).
		forb := wsc.Forb
		if g.opts.Hub != nil {
			hw := g.env.G.Dist(*g.opts.Hub, tx.Node)
			if g.opts.Uniform && hw%g.beta != 0 {
				hw = (hw/g.beta + 1) * g.beta
			}
			if hw > 0 {
				gr.deg++
				gr.wdeg += hw
				forb = append(forb, coloring.Forbid(0, hw))
			}
		}
		for _, o := range tx.Objects {
			// Current-transaction (Z) edge: a pure floor at pre-color 0.
			if zw := g.zWeight(o, tx.Node, now); zw > 0 {
				gr.deg++
				gr.wdeg += zw
				forb = append(forb, coloring.Forbid(0, zw))
			}
		}
		nbrs := g.idx.AppendNeighborsInto(wsc, slots[i], wsc.Nbrs[:0])
		for _, nb := range nbrs {
			cw := g.conflictWeight(tx.Node, nb.Node)
			if cw == 0 {
				continue
			}
			// Same-batch neighbors not yet colored still count toward the
			// bound, like uncolored vertices of H'_t.
			gr.deg++
			gr.wdeg += cw
			switch {
			case nb.Exec != depgraph.Undecided:
				forb = append(forb, coloring.Forbid(coloring.Color(nb.Exec-now), cw))
			case nb.Tx < tx.ID:
				// Undecided now, but the merge decides it before reaching
				// tx; defer the interval to then.
				wsc.Ints = append(wsc.Ints, int(nb.Tx), int(cw))
			}
		}
		wsc.Nbrs = nbrs[:0]
		wsc.Forb = forb
		gr.forbLen = len(forb) - gr.forbOff
		gr.pendLen = len(wsc.Ints)/2 - gr.pendOff
		gs[i] = gr
	})

	var err error
	for i, tx := range sorted {
		gr := gs[i]
		wsc := ss[gr.worker]
		forb := append(sc.Forb[:0], wsc.Forb[gr.forbOff:gr.forbOff+gr.forbLen]...)
		for p := 0; p < gr.pendLen; p++ {
			nbTx := core.TxID(wsc.Ints[(gr.pendOff+p)*2])
			cw := graph.Weight(wsc.Ints[(gr.pendOff+p)*2+1])
			if exec, ok := g.env.Sim.Scheduled(nbTx); ok {
				forb = append(forb, coloring.Forbid(coloring.Color(exec-now), cw))
			}
		}
		var c, bound coloring.Color
		if g.opts.Uniform {
			c = coloring.SmallestValidMultiple(forb, g.beta)
			bound = coloring.Color(gr.wdeg) + coloring.Color(g.beta)
		} else {
			c = coloring.SmallestValid(forb)
			bound = 2*coloring.Color(gr.wdeg) - coloring.Color(gr.deg)
			if bound < 0 {
				bound = 0
			}
		}
		sc.Forb = forb[:0]
		g.recordAudit(c, bound)
		if err = g.env.Sim.Decide(tx.ID, now+core.Time(c)); err != nil {
			break
		}
		g.idx.SetDecided(slots[i], now+core.Time(c))
	}
	return err
}

// recordAudit accumulates the Theorem 1/2 bound check for one assignment.
func (g *Greedy) recordAudit(c, bound coloring.Color) {
	g.audit.Scheduled++
	g.metScheduled.Inc()
	g.metColor.Observe(int64(c))
	if c <= bound {
		g.audit.WithinBound++
		g.metWithin.Inc()
	}
	if c > g.audit.MaxColor {
		g.audit.MaxColor = c
	}
	if bound > g.audit.MaxBound {
		g.audit.MaxBound = bound
	}
}

// LiveStats reports the live-set bookkeeping sizes — live conflict-index
// vertices and total object-posting entries — for the leak-guard tests:
// after a prune at time t, neither may retain transactions executed
// before t.
func (g *Greedy) LiveStats() (live, postings int) {
	st := g.idx.Snapshot()
	return st.LiveVertices, st.PostingEntries
}

// conflictWeight is the H'_t edge weight between two conflicting
// transactions: their distance in G, or the uniform overlay weight β,
// scaled by the congestion padding factor.
func (g *Greedy) conflictWeight(a, b graph.NodeID) graph.Weight {
	if g.opts.Uniform {
		return g.beta * g.opts.pad()
	}
	return g.env.G.Dist(a, b) * g.opts.pad()
}

// zWeight is the H'_t edge weight between a transaction at node and the
// object's current transaction Z_t(o): the object's feasible travel time,
// plus its remaining creation delay if it does not exist yet. Uniform mode
// rounds up to a multiple of β so Lemma 2's multiples-of-β colors apply.
func (g *Greedy) zWeight(o core.ObjID, node graph.NodeID, now core.Time) graph.Weight {
	w := g.env.Sim.ObjDistTo(o, node) * g.opts.pad()
	if created := g.env.Sim.Instance().Objects[o].Created; created > now {
		w += graph.Weight(created - now)
	}
	if g.opts.Uniform && w%g.beta != 0 {
		w = (w/g.beta + 1) * g.beta
	}
	return w
}
