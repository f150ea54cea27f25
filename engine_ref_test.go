package dtm

// From-scratch references for the two central engines. The differential
// tests in engine_diff_test.go pin the production engines' decisions to
// them, and the Table 6 CPU benchmarks time the engines against them. Both
// are test code built on the engines' exported surface: greedyRef
// recomputes H'_t per scheduling step instead of walking the persistent
// conflict index, and bucketRef routes every probe through batch's
// one-shot adapter on a freshly built problem instead of the per-level
// sessions.

import (
	"fmt"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
)

// greedyRef is the from-scratch reference for Algorithm 1: at every
// scheduling step it reconstructs the extended dependency graph H'_t from
// its own live tracking and colors the new transactions on it with
// coloring.Graph. Options, edge weights, uniform epochs and the Theorem
// 1/2 audit follow greedy.Greedy's definitions.
type greedyRef struct {
	opts     greedy.Options
	env      *sched.Env
	beta     graph.Weight
	buffer   []*core.Transaction        // Uniform mode: awaiting epoch
	audit    greedy.Audit               // Theorem 1/2 bound checks
	live     []core.TxID                // scheduled and possibly still live
	objUsers map[core.ObjID][]core.TxID // live scheduled users per object
}

func newGreedyRef(opts greedy.Options) *greedyRef {
	return &greedyRef{opts: opts, objUsers: make(map[core.ObjID][]core.TxID)}
}

func (r *greedyRef) Name() string { return "greedy-rebuild" }

// Audit returns the theorem-bound audit collected so far.
func (r *greedyRef) Audit() greedy.Audit { return r.audit }

func (r *greedyRef) Start(env *sched.Env) error {
	r.env = env
	r.beta = r.opts.Beta
	if r.opts.Uniform {
		if r.beta == 0 {
			r.beta = env.G.Diameter()
		}
		if r.beta < env.G.Diameter() {
			return fmt.Errorf("greedy: uniform overlay beta=%d below graph diameter %d", r.beta, env.G.Diameter())
		}
	}
	return nil
}

func (r *greedyRef) OnArrive(txns []*core.Transaction) error {
	if r.opts.Uniform {
		r.buffer = append(r.buffer, txns...)
		return nil
	}
	return r.schedule(txns)
}

func (r *greedyRef) NextWake() (core.Time, bool) {
	if !r.opts.Uniform || len(r.buffer) == 0 {
		return 0, false
	}
	b := core.Time(r.beta)
	return (r.env.Sim.Now() + b - 1) / b * b, true
}

func (r *greedyRef) OnWake() error {
	txns := r.buffer
	r.buffer = nil
	return r.schedule(txns)
}

func (r *greedyRef) pad() graph.Weight {
	if r.opts.Pad <= 1 {
		return 1
	}
	return graph.Weight(r.opts.Pad)
}

// conflictWeight is the H'_t edge weight between two conflicting
// transactions: their distance, or the uniform overlay β, times the pad.
func (r *greedyRef) conflictWeight(a, b graph.NodeID) graph.Weight {
	if r.opts.Uniform {
		return r.beta * r.pad()
	}
	return r.env.G.Dist(a, b) * r.pad()
}

// zWeight is the H'_t edge weight to the object's current transaction:
// its feasible travel time plus any remaining creation delay, rounded up
// to a multiple of β in uniform mode.
func (r *greedyRef) zWeight(o core.ObjID, node graph.NodeID, now core.Time) graph.Weight {
	w := r.env.Sim.ObjDistTo(o, node) * r.pad()
	if created := r.env.Sim.Instance().Objects[o].Created; created > now {
		w += graph.Weight(created - now)
	}
	if r.opts.Uniform && w%r.beta != 0 {
		w = (w/r.beta + 1) * r.beta
	}
	return w
}

func (r *greedyRef) recordAudit(c, bound coloring.Color) {
	r.audit.Scheduled++
	if c <= bound {
		r.audit.WithinBound++
	}
	r.audit.MaxColor = max(r.audit.MaxColor, c)
	r.audit.MaxBound = max(r.audit.MaxBound, bound)
}

func (r *greedyRef) schedule(txns []*core.Transaction) error {
	if len(txns) == 0 {
		return nil
	}
	sim := r.env.Sim
	now := sim.Now()
	r.prune(now)

	// Vertex layout: [new txns][conflicting scheduled live txns][Z vertices]
	// [optional hub anchor].
	newIdx := make(map[core.TxID]coloring.VertexID, len(txns))
	for i, tx := range txns {
		newIdx[tx.ID] = coloring.VertexID(i)
	}
	oldIdx := make(map[core.TxID]coloring.VertexID)
	zIdx := make(map[core.ObjID]coloring.VertexID)
	var oldList []core.TxID
	var zList []core.ObjID
	for _, tx := range txns {
		for _, o := range tx.Objects {
			if _, ok := zIdx[o]; !ok {
				zIdx[o] = 0 // placeholder; assigned below
				zList = append(zList, o)
			}
			for _, u := range r.objUsers[o] {
				if _, ok := newIdx[u]; ok {
					continue
				}
				if _, ok := oldIdx[u]; !ok {
					oldIdx[u] = 0
					oldList = append(oldList, u)
				}
			}
		}
	}
	base := len(txns)
	for i, u := range oldList {
		oldIdx[u] = coloring.VertexID(base + i)
	}
	base += len(oldList)
	for i, o := range zList {
		zIdx[o] = coloring.VertexID(base + i)
	}
	total := base + len(zList)
	hubVertex := coloring.VertexID(-1)
	if r.opts.Hub != nil {
		hubVertex = coloring.VertexID(total)
		total++
	}
	cg := coloring.New(total)

	// Pre-color scheduled live transactions with their remaining time, and
	// current transactions (object positions) with 0.
	for u, v := range oldIdx {
		exec, ok := sim.Scheduled(u)
		if !ok {
			return fmt.Errorf("greedy: live transaction %d has no schedule", u)
		}
		cg.SetColor(v, coloring.Color(exec-now))
	}
	for _, o := range zList {
		cg.SetColor(zIdx[o], 0)
	}
	if hubVertex >= 0 {
		cg.SetColor(hubVertex, 0)
	}

	// Edges incident to new transactions.
	type pair struct{ a, b coloring.VertexID }
	seen := make(map[pair]bool)
	addEdge := func(a, b coloring.VertexID, w graph.Weight) error {
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return nil
		}
		seen[pair{a, b}] = true
		return cg.AddEdge(a, b, w)
	}
	for _, tx := range txns {
		tv := newIdx[tx.ID]
		if hubVertex >= 0 {
			w := r.env.G.Dist(*r.opts.Hub, tx.Node)
			if r.opts.Uniform && w%r.beta != 0 {
				w = (w/r.beta + 1) * r.beta
			}
			if err := addEdge(tv, hubVertex, w); err != nil {
				return err
			}
		}
		for _, o := range tx.Objects {
			if err := addEdge(tv, zIdx[o], r.zWeight(o, tx.Node, now)); err != nil {
				return err
			}
			// Conflict edges to every other live user of o; objUsers was
			// pruned above, so each u is inside the live window.
			for _, u := range r.objUsers[o] {
				if u == tx.ID {
					continue
				}
				uv, ok := newIdx[u]
				if !ok {
					uv = oldIdx[u]
				}
				if err := addEdge(tv, uv, r.conflictWeight(tx.Node, sim.Txn(u).Node)); err != nil {
					return err
				}
			}
		}
	}
	// The new transactions join objUsers only after coloring, so wire the
	// new-new conflicts explicitly.
	for i, tx := range txns {
		for j := i + 1; j < len(txns); j++ {
			if tx.Conflicts(txns[j]) {
				if err := addEdge(newIdx[tx.ID], newIdx[txns[j].ID], r.conflictWeight(tx.Node, txns[j].Node)); err != nil {
					return err
				}
			}
		}
	}

	// Color the new transactions in ID order and commit decisions.
	sorted := append([]*core.Transaction(nil), txns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, tx := range sorted {
		v := newIdx[tx.ID]
		var c, bound coloring.Color
		if r.opts.Uniform {
			c = cg.GreedyColorUniform(v, r.beta)
			bound = coloring.Color(cg.WeightedDegree(v)) + coloring.Color(r.beta)
		} else {
			c = cg.GreedyColor(v)
			bound = max(2*coloring.Color(cg.WeightedDegree(v))-coloring.Color(cg.Degree(v)), 0)
		}
		r.recordAudit(c, bound)
		if err := sim.Decide(tx.ID, now+core.Time(c)); err != nil {
			return err
		}
	}
	for _, tx := range txns {
		r.live = append(r.live, tx.ID)
		for _, o := range tx.Objects {
			r.objUsers[o] = append(r.objUsers[o], tx.ID)
		}
	}
	return nil
}

// prune drops executed transactions from the live tracking structures.
func (r *greedyRef) prune(now core.Time) {
	isLive := func(id core.TxID) bool {
		et, ok := r.env.Sim.Executed(id)
		return !ok || et >= now
	}
	keep := r.live[:0]
	for _, id := range r.live {
		if isLive(id) {
			keep = append(keep, id)
		}
	}
	r.live = keep
	for o, users := range r.objUsers {
		ku := users[:0]
		for _, id := range users {
			if isLive(id) {
				ku = append(ku, id)
			}
		}
		if len(ku) == 0 {
			delete(r.objUsers, o)
		} else {
			r.objUsers[o] = ku
		}
	}
}

// bucketRef is the from-scratch reference for Algorithm 2's probes: a
// bucket.Bucket whose batch scheduler sits behind rebuildBatch.
type bucketRef struct {
	*bucket.Bucket
	rb *rebuildBatch
}

// newBucketRef returns a bucket scheduler over opts.Batch behind
// rebuildBatch.
func newBucketRef(opts bucket.Options) *bucketRef {
	rb := &rebuildBatch{inner: opts.Batch}
	opts.Batch = rb
	return &bucketRef{Bucket: bucket.New(opts), rb: rb}
}

func (b *bucketRef) Start(env *sched.Env) error {
	b.rb.sim = env.Sim
	return b.Bucket.Start(env)
}

// rebuildBatch wraps a batch scheduler and hides its native session, so
// the bucket evaluates every probe and activation through batch's
// one-shot adapter, and it rebuilds the problem's availability map from
// the simulation on each call. Each Schedule therefore sees exactly the
// one-shot problem of the paper's conversion — candidates plus their
// objects' availability folded from the already-scheduled T^s — with none
// of the session state (conflict components, memoized tours, lazily
// extended availability) the production path carries across probes.
type rebuildBatch struct {
	inner batch.Scheduler
	sim   *core.Sim
}

func (r *rebuildBatch) Name() string { return r.inner.Name() }

func (r *rebuildBatch) Schedule(p *batch.Problem) (batch.Assignment, error) {
	q := *p
	q.Avail = make(map[core.ObjID]batch.Avail)
	batch.ExtendAvail(q.Avail, p.Txns, func(o core.ObjID) batch.Avail { return r.avail(o, p.Now) })
	return r.inner.Schedule(&q)
}

// avail is one object's availability at now: the last scheduled user's
// position once it frees the object, else the object's origin if it is
// yet to be created, else its current (or in-transit destination)
// position.
func (r *rebuildBatch) avail(o core.ObjID, now core.Time) batch.Avail {
	if lastTx, lastExec, ok := r.sim.LastUser(o); ok {
		return batch.Avail{Node: r.sim.Txn(lastTx).Node, Free: lastExec}
	}
	if obj := r.sim.Instance().Objects[o]; obj.Created > now {
		return batch.Avail{Node: obj.Origin, Free: obj.Created}
	}
	loc := r.sim.ObjectLocation(o)
	if loc.InTransit {
		return batch.Avail{Node: loc.Next, Free: loc.Arrive}
	}
	return batch.Avail{Node: loc.Node, Free: now}
}

var (
	_ sched.Scheduler = (*greedyRef)(nil)
	_ sched.Scheduler = (*bucketRef)(nil)
)
