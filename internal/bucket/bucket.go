// Package bucket implements Algorithm 2 of Busch et al. (IPPS 2020): the
// online bucket schedule, which converts an arbitrary offline batch
// scheduling algorithm A into an online scheduler.
//
// Transactions wait in disjoint buckets B_i, i >= 0. A new transaction is
// inserted into the smallest-level bucket whose batch problem — together
// with the already-scheduled transactions T^s, folded in as object
// availability — A can execute within 2^i steps (F_A(T^s ∪ B_i ∪ {T}) <=
// 2^i). Bucket B_i activates every 2^i steps (at multiples of 2^i here; the
// paper does not require alignment); on activation its transactions are
// scheduled by A without altering earlier decisions, and they join T^s.
// Theorem 4: the result is O(b_A · log³(nD))-competitive where b_A is A's
// approximation ratio.
package bucket

import (
	"fmt"
	"math/bits"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// Options configure the bucket scheduler.
type Options struct {
	// Batch is the offline algorithm A to convert. Required.
	Batch batch.Scheduler
	// MaxLevel caps the bucket levels; 0 means the Lemma 3 bound
	// ceil(log2(n*D)) + 1.
	MaxLevel int
	// ForceTopLevel is an ablation switch: every transaction goes straight
	// into the top bucket, disabling the leveled structure. It isolates
	// the benefit the paper attributes to buckets — transactions with few
	// dependencies progressing through frequently activated low levels.
	ForceTopLevel bool
	// Slow is the object speed divisor the simulation runs with (see
	// core.SimOptions.SlowFactor); the batch problems must plan with the
	// same speed. Zero means 1.
	Slow int
}

func (o Options) slow() int {
	if o.Slow <= 0 {
		return 1
	}
	return o.Slow
}

// Audit accumulates the Lemma 3/4 bookkeeping of a run.
type Audit struct {
	Inserted     int
	Overflowed   int   // did not fit any level; forced into the top bucket
	LevelCounts  []int // insertions per level
	MaxLevelUsed int
	Activations  int
	// Lemma 4: a transaction inserted into B_i at time t executes by
	// t + (i+1)*2^(i+2) (for the paper's idealized A; we report adherence).
	WithinLemma4 int
	Scheduled    int
}

type pending struct {
	tx    *core.Transaction
	since core.Time // insertion time
}

// Bucket is the online bucket scheduler; it implements sched.Scheduler.
type Bucket struct {
	opts   Options
	env    *sched.Env
	levels [][]pending
	audit  Audit

	// One persistent batch session per level, holding exactly the level's
	// pending transactions, driven against a live problem whose Now/Avail
	// the engine refreshes per arrival and per activation. Tour sessions
	// share one tour-order memo.
	sessions []batch.Session
	tours    *batch.TourCache
	avail    map[core.ObjID]batch.Avail
	prob     batch.Problem
	availAt  core.Time       // time the availability entries resolve against
	resolve  batch.AvailFunc // bound method value, allocated once

	// Instrument handles; nil (free) when observability is disabled.
	metInserted    *obs.Counter   // bucket.insertions
	metOverflow    *obs.Counter   // bucket.overflows
	metActivations *obs.Counter   // bucket.activations
	metScheduled   *obs.Counter   // bucket.scheduled
	metLevel       *obs.Histogram // bucket.level: insertion level
}

// New returns a bucket scheduler converting the given batch algorithm.
func New(opts Options) *Bucket {
	return &Bucket{opts: opts}
}

// Name implements sched.Scheduler.
func (b *Bucket) Name() string {
	if b.opts.Batch == nil {
		return "bucket(nil)"
	}
	return fmt.Sprintf("bucket(%s)", b.opts.Batch.Name())
}

// Audit returns the run's bucket bookkeeping.
func (b *Bucket) Audit() Audit { return b.audit }

// MaxLevel returns the configured number of the top bucket level.
func (b *Bucket) MaxLevel() int { return len(b.levels) - 1 }

// Start implements sched.Scheduler.
func (b *Bucket) Start(env *sched.Env) error {
	if b.opts.Batch == nil {
		return fmt.Errorf("bucket: no batch scheduler configured")
	}
	b.env = env
	b.metInserted = env.Obs.Counter(obs.NameBucketInsertions)
	b.metOverflow = env.Obs.Counter(obs.NameBucketOverflows)
	b.metActivations = env.Obs.Counter(obs.NameBucketActivations)
	b.metScheduled = env.Obs.Counter(obs.NameBucketScheduled)
	b.metLevel = env.Obs.Histogram(obs.NameBucketLevel, obs.PowersOfTwo(6))
	max := b.opts.MaxLevel
	if max <= 0 {
		nd := uint64(env.G.N()) * uint64(env.G.Diameter()) * uint64(b.opts.slow())
		if nd < 2 {
			nd = 2
		}
		max = bits.Len64(nd-1) + 1 // ceil(log2(nD)) + 1, Lemma 3
	}
	b.levels = make([][]pending, max+1)
	b.audit.LevelCounts = make([]int, max+1)
	b.resolve = b.resolveAvail
	b.avail = make(map[core.ObjID]batch.Avail)
	b.prob = batch.Problem{G: env.G, Avail: b.avail, Slow: graph.Weight(b.opts.slow())}
	b.tours = batch.NewTourCache(env.G, env.Obs)
	b.sessions = make([]batch.Session, max+1)
	for i := range b.sessions {
		b.sessions[i] = batch.NewSession(b.opts.Batch, &b.prob, batch.SessionOptions{Obs: env.Obs, Tours: b.tours})
	}
	return nil
}

// refreshProblem points the shared live problem (and the availability
// resolver) at the current time and invalidates the per-window
// availability entries — telling every session, since their incremental
// tour states embed availability nodes from the window being discarded.
func (b *Bucket) refreshProblem(now core.Time) {
	b.prob.Now = now
	b.availAt = now
	clear(b.avail)
	for _, s := range b.sessions {
		s.InvalidateAvail()
	}
}

// LiveStats reports the pending-set bookkeeping sizes: transactions
// waiting in the level buckets, and transaction pointers currently held by
// the per-level batch sessions. The two must
// agree after every OnArrive/OnWake; the leak-guard test pins it.
func (b *Bucket) LiveStats() (pending, sessionHeld int) {
	for _, lv := range b.levels {
		pending += len(lv)
	}
	for _, s := range b.sessions {
		sessionHeld += s.Len()
	}
	return pending, sessionHeld
}

// OnArrive implements sched.Scheduler: each new transaction goes into the
// smallest-level bucket that keeps the batch cost within 2^i.
//
// Probes go through the persistent per-level sessions:
// a probe is one Push and one Cost, and a failed probe is retracted with
// Pop — the level's cached state (conflict components, adjacency, memoized
// tours) carries over to the next probe instead of being rebuilt. The
// simulation state is frozen for the whole call, so availability entries
// are extended lazily and stay valid across every probe of the arrival.
func (b *Bucket) OnArrive(txns []*core.Transaction) error {
	now := b.env.Sim.Now()
	b.refreshProblem(now)
	top := len(b.levels) - 1
	for _, tx := range txns {
		if b.opts.ForceTopLevel {
			b.sessions[top].Push(tx)
			b.insert(top, tx, now)
			continue
		}
		placed := false
		for i := range b.levels {
			for _, pd := range b.levels[i] {
				batch.ExtendAvailTx(b.avail, pd.tx, b.resolve)
			}
			batch.ExtendAvailTx(b.avail, tx, b.resolve)
			sess := b.sessions[i]
			sess.Push(tx)
			cost, err := sess.Cost()
			if err != nil {
				return fmt.Errorf("bucket: cost probe at level %d: %w", i, err)
			}
			if cost <= 1<<uint(i) {
				b.insert(i, tx, now)
				placed = true
				break
			}
			sess.Pop()
		}
		if !placed {
			// Outside the theory's preconditions (e.g. overload beyond one
			// live transaction per node); stay safe in the top bucket.
			b.sessions[top].Push(tx)
			b.insert(top, tx, now)
			b.audit.Overflowed++
			b.metOverflow.Inc()
		}
	}
	return nil
}

func (b *Bucket) insert(level int, tx *core.Transaction, now core.Time) {
	b.levels[level] = append(b.levels[level], pending{tx: tx, since: now})
	b.audit.Inserted++
	b.audit.LevelCounts[level]++
	b.metInserted.Inc()
	b.metLevel.Observe(int64(level))
	if level > b.audit.MaxLevelUsed {
		b.audit.MaxLevelUsed = level
	}
}

// NextWake implements sched.Scheduler: the earliest activation time of any
// non-empty bucket (B_i activates at multiples of 2^i).
func (b *Bucket) NextWake() (core.Time, bool) {
	now := b.env.Sim.Now()
	best := core.Time(-1)
	for i := range b.levels {
		if len(b.levels[i]) == 0 {
			continue
		}
		period := core.Time(1) << uint(i)
		next := (now + period - 1) / period * period
		if best < 0 || next < best {
			best = next
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// OnWake implements sched.Scheduler: activate every due bucket, lowest
// level first, so higher levels see the lower levels' fresh decisions.
func (b *Bucket) OnWake() error {
	now := b.env.Sim.Now()
	for i := range b.levels {
		period := core.Time(1) << uint(i)
		if now%period != 0 || len(b.levels[i]) == 0 {
			continue
		}
		if err := b.activate(i, now); err != nil {
			return err
		}
	}
	return nil
}

func (b *Bucket) activate(level int, now core.Time) error {
	pds := b.levels[level]
	b.levels[level] = nil
	b.audit.Activations++
	b.metActivations.Inc()
	// Fresh availability window: lower levels activated in the same wake
	// have already decided, moving objects.
	b.refreshProblem(now)
	for _, pd := range pds {
		batch.ExtendAvailTx(b.avail, pd.tx, b.resolve)
	}
	sess := b.sessions[level]
	asgn, err := sess.Assign()
	sess.Reset()
	if err != nil {
		return fmt.Errorf("bucket: activating level %d: %w", level, err)
	}
	for _, pd := range pds {
		exec, ok := asgn[pd.tx.ID]
		if !ok {
			return fmt.Errorf("bucket: batch scheduler %s dropped transaction %d", b.opts.Batch.Name(), pd.tx.ID)
		}
		if exec < now {
			return fmt.Errorf("bucket: batch scheduler %s assigned past time %d to transaction %d", b.opts.Batch.Name(), exec, pd.tx.ID)
		}
		if err := b.env.Sim.Decide(pd.tx.ID, exec); err != nil {
			return err
		}
		b.audit.Scheduled++
		b.metScheduled.Inc()
		bound := core.Time(level+1) * (1 << uint(level+2))
		if exec-pd.since <= bound {
			b.audit.WithinLemma4++
		}
	}
	return nil
}

// resolveAvail computes one object's availability (node, free-time) at
// b.availAt: the last scheduled user's position once it frees the object,
// or the object's current/committed position, or its origin if it is yet
// to be created.
func (b *Bucket) resolveAvail(o core.ObjID) batch.Avail {
	sim := b.env.Sim
	now := b.availAt
	if lastTx, lastExec, ok := sim.LastUser(o); ok {
		// LastUser only reports pending (undone) transactions, which are
		// always inside the live window — Txn cannot return nil here.
		return batch.Avail{Node: sim.Txn(lastTx).Node, Free: lastExec}
	}
	obj := sim.Instance().Objects[o]
	if obj.Created > now {
		return batch.Avail{Node: obj.Origin, Free: obj.Created}
	}
	loc := sim.ObjectLocation(o)
	if loc.InTransit {
		return batch.Avail{Node: loc.Next, Free: loc.Arrive}
	}
	return batch.Avail{Node: loc.Node, Free: now}
}

var _ sched.Scheduler = (*Bucket)(nil)
