package batch

// Sessionized batch API. Algorithm 2 queries the batch scheduler once per
// level with a candidate set that differs from the previous probe of the
// same level by exactly one transaction. The one-shot Scheduler interface
// forces the bucket engines to rebuild the whole problem for every probe;
// a Session instead keeps per-level state alive across probes and patches
// it under single-transaction insertion (Push) and retraction (Pop).
//
// Sessions read the live *Problem they were created with: the caller owns
// p.Now and p.Avail and refreshes them between probes (the bucket engines
// clear and lazily refill one availability map per arrival). Membership-
// dependent state — conflict components, conflict adjacency, per-component
// canonical MSTs — persists inside the session; anything derived from Now
// alone is recomputed (or re-validated against the evaluation's Now) per
// Cost/Assign call. State derived from Avail — the tour sessions' node
// sets include availability nodes — is dropped when the caller announces
// that entries may have been replaced, by calling InvalidateAvail at the
// start of each refill window. Adding entries to the map never requires
// invalidation; only clearing or overwriting existing ones does. Tour
// additionally memoizes its MST preorder per node set (see TourCache),
// which depends only on the immutable graph.
//
// Every session is pinned byte-identical to the one-shot path: Cost()
// equals Cost(s, p) and Assign() equals s.Schedule(p) with p.Txns set to
// the pushed transactions in push order. The root differential test and
// FuzzBatchIncremental enforce this.

import (
	"dtm/internal/core"
	"dtm/internal/obs"
)

// Session is an incremental batch scheduling session over one candidate
// set. Push and Pop edit the set (Pop retracts the most recent Push);
// Cost and Assign evaluate the scheduler on the current set against the
// live problem's Now/Avail. Sessions are not safe for concurrent use.
type Session interface {
	// Push appends tx to the candidate set.
	Push(tx *core.Transaction)
	// Pop retracts the most recently pushed transaction (no-op when empty).
	Pop()
	// Len returns the current candidate-set size.
	Len() int
	// Cost returns the scheduler's makespan F_A for the current set,
	// relative to the problem's current Now.
	Cost() (core.Time, error)
	// Assign returns the scheduler's assignment for the current set. The
	// returned map is owned by the caller (a fresh map per call).
	Assign() (Assignment, error)
	// Reset empties the candidate set, releasing all retained
	// transaction pointers while keeping allocated buffers for reuse.
	Reset()
	// InvalidateAvail tells the session that existing entries of the live
	// problem's Avail map may have been cleared or overwritten, dropping
	// any cached state derived from them. Callers must invoke it whenever
	// they refresh availability in place (lazily adding entries for
	// never-seen objects is exempt). It is O(1) for every built-in session.
	InvalidateAvail()
}

// SessionScheduler is a batch scheduler with a native incremental session
// implementation. Schedulers that do not implement it are adapted
// generically (each Cost/Assign re-runs the one-shot Schedule).
type SessionScheduler interface {
	Scheduler
	NewSession(p *Problem, opts SessionOptions) Session
}

// SessionOptions configure a session.
type SessionOptions struct {
	// Obs registers the batch.* reuse/rebuild instruments (nil disables).
	Obs *obs.Metrics
	// Tours, when set, is a shared tour-order memo for Tour sessions over
	// the same graph; nil gives the session a private cache.
	Tours *TourCache
}

// sessionMetrics holds the session instrument handles; all nil (and free)
// when observability is disabled.
type sessionMetrics struct {
	sessions *obs.Counter // batch.sessions: sessions begun
	pushes   *obs.Counter // batch.session_pushes: Push calls
	costs    *obs.Counter // batch.session_costs: Cost/Assign evaluations
	rebuilds *obs.Counter // batch.session_rebuilds: adapter one-shot re-runs
}

func newSessionMetrics(m *obs.Metrics) sessionMetrics {
	if m == nil {
		return sessionMetrics{}
	}
	return sessionMetrics{
		sessions: m.Counter(obs.NameBatchSessions),
		pushes:   m.Counter(obs.NameBatchSessionPushes),
		costs:    m.Counter(obs.NameBatchSessionCosts),
		rebuilds: m.Counter(obs.NameBatchSessionRebuilds),
	}
}

// NewSession begins an incremental session of s over the live problem p
// (p.Txns is ignored; the session's pushed set takes its place). Schedulers
// implementing SessionScheduler get their native incremental engine; any
// other scheduler — List, Randomized, the WithSuffixProperty/WithRetry
// combinators — is wrapped by a generic adapter that re-runs the one-shot
// Schedule per evaluation, preserving exact behavior (including the retry
// wrapper's one-reseed-per-evaluation sequence).
func NewSession(s Scheduler, p *Problem, opts SessionOptions) Session {
	if ss, ok := s.(SessionScheduler); ok {
		return ss.NewSession(p, opts)
	}
	met := newSessionMetrics(opts.Obs)
	met.sessions.Inc()
	return &oneShotSession{inner: s, p: p, met: met}
}

// oneShotSession adapts a legacy one-shot scheduler to the Session
// interface: each evaluation runs inner.Schedule on a shallow copy of the
// live problem with Txns set to the pushed set, exactly once — so stateful
// wrappers (retry reseeding) see the same invocation sequence as one
// direct Schedule call per evaluation.
type oneShotSession struct {
	inner Scheduler
	p     *Problem
	met   sessionMetrics
	txns  []*core.Transaction
	prob  Problem // reusable header for the shallow copy
}

func (s *oneShotSession) Push(tx *core.Transaction) {
	s.txns = append(s.txns, tx)
	s.met.pushes.Inc()
}

func (s *oneShotSession) Pop() {
	if n := len(s.txns); n > 0 {
		s.txns[n-1] = nil
		s.txns = s.txns[:n-1]
	}
}

func (s *oneShotSession) Len() int { return len(s.txns) }

// InvalidateAvail implements Session: every evaluation re-reads the live
// problem wholesale, so there is nothing to drop.
func (s *oneShotSession) InvalidateAvail() {}

func (s *oneShotSession) schedule() (Assignment, error) {
	s.met.costs.Inc()
	s.met.rebuilds.Inc()
	s.prob = *s.p
	s.prob.Txns = s.txns
	return s.inner.Schedule(&s.prob)
}

func (s *oneShotSession) Cost() (core.Time, error) {
	a, err := s.schedule()
	if err != nil {
		return 0, err
	}
	return a.Makespan(s.p.Now), nil
}

func (s *oneShotSession) Assign() (Assignment, error) { return s.schedule() }

func (s *oneShotSession) Reset() {
	for i := range s.txns {
		s.txns[i] = nil
	}
	s.txns = s.txns[:0]
	s.prob.Txns = nil
}

// AvailFunc resolves the availability of one object on demand. The bucket
// engine backs it with the simulation (last scheduled user, in-transit
// position, origin); the distributed coordinator backs it with its
// granted/heard-of/origin knowledge.
type AvailFunc func(core.ObjID) Avail

// ExtendAvail lazily adds availability entries for every object used by
// txns that dst does not yet hold. Entries already present are kept: the
// callers resolve against state frozen for the duration of the fill window
// (one arrival, one report), so earlier entries stay valid.
func ExtendAvail(dst map[core.ObjID]Avail, txns []*core.Transaction, resolve AvailFunc) {
	for _, tx := range txns {
		ExtendAvailTx(dst, tx, resolve)
	}
}

// ExtendAvailTx is ExtendAvail for a single transaction.
func ExtendAvailTx(dst map[core.ObjID]Avail, tx *core.Transaction, resolve AvailFunc) {
	for _, o := range tx.Objects {
		if _, ok := dst[o]; !ok {
			dst[o] = resolve(o)
		}
	}
}
