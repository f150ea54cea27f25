// Package distbucket implements Algorithm 3 of Busch et al. (IPPS 2020):
// the distributed bucket schedule. All coordination happens through
// messages over the communication graph (internal/distnet) while object
// physics run in the core engine at half speed (the paper's device so that
// full-speed control messages always outrun objects).
//
// Roles, all co-located on ordinary nodes:
//
//   - Home/directory: each object's creation node tracks its availability
//     (node and time it becomes free after its last scheduled user) and the
//     registered requesters. The IPPS paper carries this metadata on the
//     object itself and tracks moving objects by chasing; a home-based
//     directory is the standard DTM substitute (Arrow/Ballistic lineage,
//     the paper's refs [17, 28]) and adds only O(D) additive latency —
//     see DESIGN.md §2.
//   - Transaction origin: discovers its objects' positions and the
//     conflicting transactions through the homes, derives the radius y,
//     picks the lowest cover layer whose home cluster contains its
//     y-neighborhood, and reports to that cluster's leader (Algorithm 3,
//     lines 2-6).
//   - Leader: maintains partial buckets per level; on the globally aligned
//     activation step of level i (every 2^i steps) it reserves the bucket's
//     objects at their homes in ascending object order (deadlock-free
//     ordered acquisition — the serialization the paper gets from Lemma 6's
//     sub-layer disjointness), runs the offline batch algorithm A on the
//     granted fresh availability, announces execution times to the
//     transactions' nodes, and releases the homes with updated
//     availability.
package distbucket

import (
	"fmt"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// Message payloads. All payloads are immutable after send.

type arrivalMsg struct{ Tx core.TxID }

// Attempt fields number the retransmissions of a request (0 = first try).
// They exist for log/debug value only — receivers treat every attempt the
// same and deduplicate by content keys — and stay 0 on fault-free runs.

type reqMsg struct {
	Obj     core.ObjID
	Tx      core.TxID
	TxNode  graph.NodeID
	Attempt int
}

type txRef struct {
	Tx   core.TxID
	Node graph.NodeID
}

type infoMsg struct {
	Obj       core.ObjID
	Tx        core.TxID
	Avail     batch.Avail
	Conflicts []txRef
}

type objSnapshot struct {
	Obj   core.ObjID
	Avail batch.Avail
}

// clusterRef identifies a sparse-cover cluster; partial buckets are kept
// per (cluster, level), as in the paper.
type clusterRef struct {
	Layer    int
	SubLayer int
	Index    int
}

type reportMsg struct {
	Tx      core.TxID
	Node    graph.NodeID
	Cluster clusterRef
	Objs    []objSnapshot
	Attempt int
}

type reserveMsg struct {
	Obj     core.ObjID
	Session int64
	Attempt int
}

type grantMsg struct {
	Obj     core.ObjID
	Session int64
	Avail   batch.Avail
}

type releaseMsg struct {
	Obj      core.ObjID
	Session  int64
	NewAvail batch.Avail
	// Restore releases the reservation without touching the home's
	// availability — an abandoned session returning an object unused.
	Restore bool
	Attempt int
}

type decideMsg struct {
	Tx   core.TxID
	Exec core.Time
}

// Acknowledgements, sent only on faulty networks (cfg.faulty); the
// fault-free protocol carries no acks, keeping zero-plan runs byte-identical
// to the original. reserveAckMsg doubles as a queue heartbeat: "your reserve
// is registered, the object is busy" — it resets the leader's retry backoff
// so a long legitimate queue wait is not mistaken for loss.

type reportAckMsg struct{ Tx core.TxID }

type reserveAckMsg struct {
	Obj     core.ObjID
	Session int64
}

type releaseAckMsg struct {
	Obj     core.ObjID
	Session int64
}

// decision is what the lockstep driver drains from node handlers.
type decision struct {
	tx   core.TxID
	exec core.Time
}

// protoMetrics holds the protocol's instrument handles, shared by all node
// handlers; the counters are atomic, so the parallel engine's concurrent
// handlers update them race-free. All nil (and free) when disabled.
type protoMetrics struct {
	discoveries *obs.Counter   // distbucket.discoveries: discovery rounds started
	reports     *obs.Counter   // distbucket.reports: reports received by leaders
	inserted    *obs.Counter   // distbucket.insertions: partial-bucket insertions
	overflow    *obs.Counter   // distbucket.overflows: forced into the top level
	activations *obs.Counter   // distbucket.activations: sessions started
	reserves    *obs.Counter   // distbucket.reserves: home reservations received
	grants      *obs.Counter   // distbucket.grants: grants received by leaders
	releases    *obs.Counter   // distbucket.releases: home releases received
	retries     *obs.Counter   // distbucket.retries: requests retransmitted
	timeouts    *obs.Counter   // distbucket.timeouts: request deadlines expired
	abandoned   *obs.Counter   // distbucket.abandoned: transactions given up on
	level       *obs.Histogram // distbucket.bucket_level: insertion level
}

func newProtoMetrics(m *obs.Metrics) protoMetrics {
	if m == nil {
		return protoMetrics{}
	}
	return protoMetrics{
		discoveries: m.Counter(obs.NameDistbucketDiscoveries),
		reports:     m.Counter(obs.NameDistbucketReports),
		inserted:    m.Counter(obs.NameDistbucketInsertions),
		overflow:    m.Counter(obs.NameDistbucketOverflows),
		activations: m.Counter(obs.NameDistbucketActivations),
		reserves:    m.Counter(obs.NameDistbucketReserves),
		grants:      m.Counter(obs.NameDistbucketGrants),
		releases:    m.Counter(obs.NameDistbucketReleases),
		retries:     m.Counter(obs.NameDistbucketRetries),
		timeouts:    m.Counter(obs.NameDistbucketTimeouts),
		abandoned:   m.Counter(obs.NameDistbucketAbandoned),
		level:       m.Histogram(obs.NameDistbucketBucketLevel, obs.PowersOfTwo(6)),
	}
}

// config is shared, read-only state for all node handlers.
type config struct {
	in       *core.Instance
	g        *graph.Graph
	hier     *cover.Hierarchy
	batch    batch.Scheduler
	slow     graph.Weight
	maxLevel int
	met      protoMetrics
	obs      *obs.Metrics // registry for the batch-session instruments (nil when disabled)

	// Reliability layer (recovery.go): active only when the network has a
	// fault plan. With faulty false, every ack/retry/dedup path is skipped
	// and the protocol is byte-identical to the fault-free original.
	faulty      bool
	maxJitter   core.Time // the plan's per-message delay bound
	slack       core.Time // base retry backoff step
	backoffCap  core.Time // ceiling on exponential backoff
	maxAttempts int       // consecutive unanswered attempts before giving up
}

func (c *config) home(o core.ObjID) graph.NodeID { return c.in.Objects[o].Origin }

// discovery tracks a transaction waiting for home replies.
type discovery struct {
	tx      *core.Transaction
	waiting int
	objs    []objSnapshot
	refs    []txRef
	have    map[core.ObjID]bool // replies received (dedup; faulty runs only)
}

// reservation serializes leaders' access to one object at its home.
type reservation struct {
	holderSession int64
	holderNode    graph.NodeID
	holderAvail   batch.Avail // what the grant carried, for idempotent re-grants
	queue         []reserveReq
}

type reserveReq struct {
	session int64
	node    graph.NodeID
}

// pendTx is a transaction waiting in a partial bucket.
type pendTx struct {
	tx    *core.Transaction
	objs  []objSnapshot
	since core.Time
	level int
}

// session is one in-flight bucket activation at a leader.
type session struct {
	id      int64
	level   int
	txs     []pendTx
	objs    []core.ObjID
	granted map[core.ObjID]batch.Avail
	next    int
}

// Audit captures protocol statistics for the experiments. Each node
// accumulates its own (handlers run concurrently); the driver merges them.
type Audit struct {
	Reports      int
	Inserted     int
	Overflowed   int
	Activations  int
	Abandoned    int // transactions given up on under faults
	MaxLevelUsed int
	LayerCounts  map[int]int // cover layer chosen per report
}

func (a *Audit) merge(b *Audit) {
	a.Reports += b.Reports
	a.Inserted += b.Inserted
	a.Overflowed += b.Overflowed
	a.Activations += b.Activations
	a.Abandoned += b.Abandoned
	if b.MaxLevelUsed > a.MaxLevelUsed {
		a.MaxLevelUsed = b.MaxLevelUsed
	}
	for l, c := range b.LayerCounts {
		a.LayerCounts[l] += c
	}
}

// node is the per-node protocol handler.
type node struct {
	cfg *config
	id  graph.NodeID

	// home state
	avail    map[core.ObjID]batch.Avail
	reqs     map[core.ObjID][]txRef
	reserved map[core.ObjID]*reservation

	// origin state
	discov map[core.TxID]*discovery

	// leader state: partial buckets keyed per (cluster, level).
	buckets map[bucketKey][]pendTx
	known   map[core.ObjID]batch.Avail // latest availability heard of
	// Sessionized probe state: one persistent batch session per partial
	// bucket (kept in lockstep with buckets: Push on place, Reset when the
	// bucket drains into a protocol session), one live problem shared by
	// all of them, and a per-node tour-order memo. Node handlers are
	// single-threaded, so no locking.
	probeSess  map[bucketKey]batch.Session
	probeAvail map[core.ObjID]batch.Avail
	probeProb  batch.Problem
	tours      *batch.TourCache
	resolve    batch.AvailFunc
	sess       *session
	sessSeq    int64
	due        []bucketKey // activation queue of partial buckets
	decisions  []decision
	// reported records, per transaction handled by this node's discovery,
	// which cluster it reported to (for the Lemma 6 audit).
	reported map[core.TxID]clusterRef

	// Reliability state (recovery.go); all maps stay empty on fault-free
	// runs, where no code path touches them.
	pend         []*pending                // outstanding requests with deadlines
	abandoned    []AbandonedTx             // transactions this node gave up on
	sentReports  map[core.TxID]reportMsg   // origin: reports awaiting leader ack
	seenReports  map[core.TxID]bool        // leader: processed reports (dedup)
	relBuf       map[objSession]releaseMsg // leader: releases awaiting home ack
	finishedSess map[objSession]bool       // home: sessions already released

	audit *Audit
	// err is the first batch-scheduler error this node hit; the node
	// handles nothing after it, and Run fails the run at the end of the
	// step. Handlers may run on distnet worker goroutines, where a panic
	// could not be recovered.
	err error
}

// objSession keys per-(object, session) reliability state.
type objSession struct {
	obj  core.ObjID
	sess int64
}

// AbandonedTx records one transaction the protocol gave up on and why.
type AbandonedTx struct {
	Tx     core.TxID
	Reason string
}

func newNode(cfg *config, id graph.NodeID) *node {
	n := &node{
		cfg:      cfg,
		id:       id,
		avail:    make(map[core.ObjID]batch.Avail),
		reqs:     make(map[core.ObjID][]txRef),
		reserved: make(map[core.ObjID]*reservation),
		discov:   make(map[core.TxID]*discovery),
		buckets:  make(map[bucketKey][]pendTx),
		reported: make(map[core.TxID]clusterRef),
		known:    make(map[core.ObjID]batch.Avail),
		audit:    &Audit{LayerCounts: make(map[int]int)},
	}
	n.probeSess = make(map[bucketKey]batch.Session)
	n.probeAvail = make(map[core.ObjID]batch.Avail)
	n.probeProb = batch.Problem{G: cfg.g, Avail: n.probeAvail, Slow: cfg.slow}
	n.tours = batch.NewTourCache(cfg.g, cfg.obs)
	n.resolve = n.resolveKnown
	if cfg.faulty {
		n.sentReports = make(map[core.TxID]reportMsg)
		n.seenReports = make(map[core.TxID]bool)
		n.relBuf = make(map[objSession]releaseMsg)
		n.finishedSess = make(map[objSession]bool)
	}
	for _, o := range cfg.in.Objects {
		if o.Origin == id {
			n.avail[o.ID] = batch.Avail{Node: o.Origin, Free: o.Created}
		}
	}
	return n
}

// HandleEvent implements distnet.Handler.
func (n *node) HandleEvent(ctx *distnet.Ctx, ev distnet.Event) {
	if n.err != nil {
		return
	}
	switch p := ev.Payload.(type) {
	case arrivalMsg:
		n.onArrival(ctx, p)
	case reqMsg:
		n.onReq(ctx, ev.From, p)
	case infoMsg:
		n.onInfo(ctx, p)
	case reportMsg:
		n.onReport(ctx, p)
	case reserveMsg:
		n.onReserve(ctx, ev.From, p)
	case grantMsg:
		n.onGrant(ctx, p)
	case releaseMsg:
		n.onRelease(ctx, ev.From, p)
	case reportAckMsg:
		n.onReportAck(p)
	case reserveAckMsg:
		n.onReserveAck(ctx, p)
	case releaseAckMsg:
		n.onReleaseAck(p)
	case decideMsg:
		// Notification only: the transaction's node learns its execution
		// time. The decision itself was recorded at the leader when the
		// bucket activated (see finishSession).
		_ = p
	case nil:
		if ev.Kind == distnet.KindWake {
			n.onWake(ctx)
		}
	default:
		panic(fmt.Sprintf("distbucket: node %d: unknown payload %T", n.id, ev.Payload))
	}
}

// onArrival starts discovery for a locally generated transaction
// (Algorithm 3, lines 2-3).
func (n *node) onArrival(ctx *distnet.Ctx, m arrivalMsg) {
	tx := n.cfg.in.Txns[m.Tx]
	d := &discovery{tx: tx, waiting: len(tx.Objects)}
	if n.cfg.faulty {
		d.have = make(map[core.ObjID]bool)
	}
	n.discov[m.Tx] = d
	n.cfg.met.discoveries.Inc()
	for _, o := range tx.Objects {
		ctx.Send(n.cfg.home(o), reqMsg{Obj: o, Tx: m.Tx, TxNode: n.id})
		if n.cfg.faulty {
			n.track(ctx, &pending{kind: pendDiscover, tx: m.Tx, obj: o, dst: n.cfg.home(o)})
		}
	}
}

// onReq serves a directory lookup: register the requester and reply with
// availability plus the conflicting transactions known so far. Retransmitted
// lookups are served idempotently: the requester keeps its original position
// in the registration order and receives the same conflict set it would have
// the first time, so a lost infoMsg is recoverable without double-counting.
func (n *node) onReq(ctx *distnet.Ctx, from graph.NodeID, m reqMsg) {
	if n.cfg.faulty {
		for i, r := range n.reqs[m.Obj] {
			if r.Tx == m.Tx {
				conflicts := append([]txRef(nil), n.reqs[m.Obj][:i]...)
				a, ok := n.avail[m.Obj]
				if !ok {
					obj := n.cfg.in.Objects[m.Obj]
					a = batch.Avail{Node: obj.Origin, Free: obj.Created}
				}
				ctx.Send(from, infoMsg{Obj: m.Obj, Tx: m.Tx, Avail: a, Conflicts: conflicts})
				return
			}
		}
	}
	conflicts := append([]txRef(nil), n.reqs[m.Obj]...)
	n.reqs[m.Obj] = append(n.reqs[m.Obj], txRef{Tx: m.Tx, Node: m.TxNode})
	a, ok := n.avail[m.Obj]
	if !ok {
		obj := n.cfg.in.Objects[m.Obj]
		a = batch.Avail{Node: obj.Origin, Free: obj.Created}
	}
	ctx.Send(from, infoMsg{Obj: m.Obj, Tx: m.Tx, Avail: a, Conflicts: conflicts})
}

// onInfo gathers home replies; when all arrive, derive y and report to the
// proper cluster leader (Algorithm 3, lines 4-6).
func (n *node) onInfo(ctx *distnet.Ctx, m infoMsg) {
	d, ok := n.discov[m.Tx]
	if !ok {
		return
	}
	if n.cfg.faulty {
		if d.have[m.Obj] {
			return // duplicate reply (retransmission or network duplication)
		}
		d.have[m.Obj] = true
	}
	d.objs = append(d.objs, objSnapshot{Obj: m.Obj, Avail: m.Avail})
	d.refs = append(d.refs, m.Conflicts...)
	d.waiting--
	if d.waiting > 0 {
		return
	}
	delete(n.discov, m.Tx)
	var y graph.Weight
	for _, os := range d.objs {
		if dd := ctx.Dist(n.id, os.Avail.Node); dd > y {
			y = dd
		}
	}
	for _, r := range d.refs {
		if dd := ctx.Dist(n.id, r.Node); dd > y {
			y = dd
		}
	}
	layer, cl := n.cfg.hier.HomeForRadius(n.id, y)
	n.audit.LayerCounts[layer]++
	ref := clusterRef{Layer: cl.Layer, SubLayer: cl.SubLayer, Index: cl.Index}
	n.reported[m.Tx] = ref
	sort.Slice(d.objs, func(i, j int) bool { return d.objs[i].Obj < d.objs[j].Obj })
	rm := reportMsg{Tx: m.Tx, Node: n.id, Cluster: ref, Objs: d.objs}
	ctx.Send(cl.Leader, rm)
	if n.cfg.faulty {
		n.sentReports[m.Tx] = rm
		n.track(ctx, &pending{kind: pendReport, tx: m.Tx, dst: cl.Leader})
	}
}

// bucketKey identifies one partial bucket: a cluster and a level.
type bucketKey struct {
	cluster clusterRef
	level   int
}

func bucketKeyLess(a, b bucketKey) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	if a.cluster.Layer != b.cluster.Layer {
		return a.cluster.Layer < b.cluster.Layer
	}
	if a.cluster.SubLayer != b.cluster.SubLayer {
		return a.cluster.SubLayer < b.cluster.SubLayer
	}
	return a.cluster.Index < b.cluster.Index
}

// onReport places the transaction in the smallest-level partial bucket
// whose batch cost stays within 2^i, then arms the activation timer.
func (n *node) onReport(ctx *distnet.Ctx, m reportMsg) {
	if n.cfg.faulty {
		if n.seenReports[m.Tx] {
			ctx.Send(m.Node, reportAckMsg{Tx: m.Tx}) // re-ack: first ack was lost
			return
		}
		n.seenReports[m.Tx] = true
		ctx.Send(m.Node, reportAckMsg{Tx: m.Tx})
	}
	n.audit.Reports++
	n.cfg.met.reports.Inc()
	for _, os := range m.Objs {
		n.learn(os)
	}
	tx := n.cfg.in.Txns[m.Tx]
	// Probe through the persistent per-bucket sessions: the availability
	// window (n.known merged via learn above) is frozen for the whole
	// report, so entries are extended lazily and shared across levels.
	n.probeProb.Now = ctx.Now()
	clear(n.probeAvail)
	for _, s := range n.probeSess {
		s.InvalidateAvail() // O(1); order-insensitive
	}
	placed := -1
	for i := 0; i <= n.cfg.maxLevel; i++ {
		key := bucketKey{cluster: m.Cluster, level: i}
		for _, pd := range n.buckets[key] {
			batch.ExtendAvailTx(n.probeAvail, pd.tx, n.resolve)
		}
		batch.ExtendAvailTx(n.probeAvail, tx, n.resolve)
		sess := n.probeSession(key)
		sess.Push(tx)
		cost, err := sess.Cost()
		if err != nil {
			n.err = fmt.Errorf("distbucket: node %d: cost probe at level %d: %w", n.id, i, err)
			return
		}
		if cost <= 1<<uint(i) {
			placed = i
			break
		}
		sess.Pop()
	}
	if placed < 0 {
		placed = n.cfg.maxLevel
		n.audit.Overflowed++
		n.cfg.met.overflow.Inc()
		// The top-level probe retracted the push; the forced placement
		// must re-enter its session.
		n.probeSession(bucketKey{cluster: m.Cluster, level: placed}).Push(tx)
	}
	key := bucketKey{cluster: m.Cluster, level: placed}
	n.buckets[key] = append(n.buckets[key], pendTx{
		tx: tx, objs: m.Objs, since: ctx.Now(), level: placed,
	})
	n.audit.Inserted++
	n.cfg.met.inserted.Inc()
	n.cfg.met.level.Observe(int64(placed))
	if placed > n.audit.MaxLevelUsed {
		n.audit.MaxLevelUsed = placed
	}
	ctx.WakeAt(nextBoundary(ctx.Now(), placed))
}

func nextBoundary(now core.Time, level int) core.Time {
	period := core.Time(1) << uint(level)
	return (now + period - 1) / period * period
}

// learn merges an availability observation (latest Free wins).
func (n *node) learn(os objSnapshot) {
	if cur, ok := n.known[os.Obj]; !ok || os.Avail.Free > cur.Free {
		n.known[os.Obj] = os.Avail
	}
}

// probeSession returns (creating on first use) the persistent batch
// session mirroring the partial bucket at key.
func (n *node) probeSession(key bucketKey) batch.Session {
	s, ok := n.probeSess[key]
	if !ok {
		s = batch.NewSession(n.cfg.batch, &n.probeProb, batch.SessionOptions{Obs: n.cfg.obs, Tours: n.tours})
		n.probeSess[key] = s
	}
	return s
}

// resolveKnown resolves one object's availability from the leader's
// knowledge: the latest availability heard of, else the object's origin.
func (n *node) resolveKnown(o core.ObjID) batch.Avail {
	if a, ok := n.known[o]; ok {
		return a
	}
	obj := n.cfg.in.Objects[o]
	return batch.Avail{Node: obj.Origin, Free: obj.Created}
}

// problem assembles a one-shot batch problem from the leader's
// availability knowledge; the granted map (if non-nil) takes precedence.
func (n *node) problem(txns []*core.Transaction, now core.Time, granted map[core.ObjID]batch.Avail) *batch.Problem {
	avail := make(map[core.ObjID]batch.Avail)
	batch.ExtendAvail(avail, txns, func(o core.ObjID) batch.Avail {
		if a, ok := granted[o]; ok {
			return a
		}
		return n.resolveKnown(o)
	})
	return &batch.Problem{G: n.cfg.g, Now: now, Txns: txns, Avail: avail, Slow: n.cfg.slow}
}

// onWake queues every due, non-empty level and starts a session if idle.
// Lower levels first (Section IV-B: lower buckets scheduled before higher
// ones at coinciding activations).
func (n *node) onWake(ctx *distnet.Ctx) {
	if n.cfg.faulty {
		n.retryDue(ctx)
	}
	now := ctx.Now()
	for key, pds := range n.buckets {
		if len(pds) == 0 {
			continue
		}
		period := core.Time(1) << uint(key.level)
		if now%period != 0 {
			continue
		}
		if !containsKey(n.due, key) {
			n.due = append(n.due, key)
		}
	}
	n.maybeStartSession(ctx)
}

func containsKey(xs []bucketKey, v bucketKey) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (n *node) maybeStartSession(ctx *distnet.Ctx) {
	if n.sess != nil || len(n.due) == 0 {
		return
	}
	sort.Slice(n.due, func(i, j int) bool { return bucketKeyLess(n.due[i], n.due[j]) })
	key := n.due[0]
	n.due = n.due[1:]
	txs := n.buckets[key]
	if len(txs) == 0 {
		n.maybeStartSession(ctx)
		return
	}
	delete(n.buckets, key)
	// The bucket drains into this protocol session; its probe session must
	// drop the same transactions so later reports against the (now empty)
	// bucket probe the empty set.
	if ps, ok := n.probeSess[key]; ok {
		ps.Reset()
	}
	n.audit.Activations++
	n.cfg.met.activations.Inc()
	n.sessSeq++
	s := &session{
		id:      int64(n.id)<<32 | n.sessSeq,
		level:   key.level,
		txs:     txs,
		granted: make(map[core.ObjID]batch.Avail),
	}
	objSet := make(map[core.ObjID]bool)
	for _, pd := range txs {
		for _, o := range pd.tx.Objects {
			objSet[o] = true
		}
	}
	for o := range objSet {
		s.objs = append(s.objs, o)
	}
	sort.Slice(s.objs, func(i, j int) bool { return s.objs[i] < s.objs[j] })
	n.sess = s
	// Ordered acquisition, one object at a time: deadlock-free.
	n.sendReserve(ctx, s.objs[0], s.id)
}

// sendReserve issues one reservation and, on faulty networks, arms its
// retry timer.
func (n *node) sendReserve(ctx *distnet.Ctx, o core.ObjID, session int64) {
	ctx.Send(n.cfg.home(o), reserveMsg{Obj: o, Session: session})
	if n.cfg.faulty {
		n.track(ctx, &pending{kind: pendReserve, obj: o, session: session, dst: n.cfg.home(o)})
	}
}

// onReserve serializes leaders at the object's home. Under faults it is
// idempotent: a retransmission from the current holder re-sends the original
// grant, one from a queued session heartbeats instead of double-queueing,
// and one from an already-released session is ignored.
func (n *node) onReserve(ctx *distnet.Ctx, from graph.NodeID, m reserveMsg) {
	n.cfg.met.reserves.Inc()
	if n.cfg.faulty && n.finishedSess[objSession{obj: m.Obj, sess: m.Session}] {
		return // stale retry: this session already released the object
	}
	r := n.reserved[m.Obj]
	if r == nil {
		r = &reservation{}
		n.reserved[m.Obj] = r
	}
	if n.cfg.faulty && r.holderSession == m.Session {
		// The grant was lost in flight: replay it verbatim.
		ctx.Send(from, grantMsg{Obj: m.Obj, Session: m.Session, Avail: r.holderAvail})
		return
	}
	if r.holderSession == 0 {
		r.holderSession = m.Session
		r.holderNode = from
		a, ok := n.avail[m.Obj]
		if !ok {
			obj := n.cfg.in.Objects[m.Obj]
			a = batch.Avail{Node: obj.Origin, Free: obj.Created}
		}
		r.holderAvail = a
		ctx.Send(from, grantMsg{Obj: m.Obj, Session: m.Session, Avail: a})
		return
	}
	if n.cfg.faulty {
		for _, q := range r.queue {
			if q.session == m.Session {
				ctx.Send(from, reserveAckMsg{Obj: m.Obj, Session: m.Session})
				return
			}
		}
	}
	r.queue = append(r.queue, reserveReq{session: m.Session, node: from})
	if n.cfg.faulty {
		ctx.Send(from, reserveAckMsg{Obj: m.Obj, Session: m.Session})
	}
}

// onGrant advances the session's acquisition; when complete, schedule.
func (n *node) onGrant(ctx *distnet.Ctx, m grantMsg) {
	n.cfg.met.grants.Inc()
	s := n.sess
	if s == nil || s.id != m.Session {
		if n.cfg.faulty {
			// A stale grant for an abandoned session: the abandonment already
			// sent the home a restore-release, so the reservation is not
			// leaked — drop the grant.
			return
		}
		// A grant for a session we no longer run would leak the home's
		// reservation: that is a protocol bug, not a tolerable race.
		panic(fmt.Sprintf("distbucket: node %d: grant for unknown session %d", n.id, m.Session))
	}
	if _, ok := s.granted[m.Obj]; ok {
		return // duplicated grant
	}
	s.granted[m.Obj] = m.Avail
	s.next++
	if s.next < len(s.objs) {
		n.sendReserve(ctx, s.objs[s.next], s.id)
		return
	}
	n.finishSession(ctx)
}

// finishSession runs A on fresh availability, announces execution times,
// and releases the homes with updated availability.
func (n *node) finishSession(ctx *distnet.Ctx) {
	s := n.sess
	now := ctx.Now()
	// Execution times must not precede the moment the transaction's node
	// learns them.
	var notify graph.Weight
	txns := make([]*core.Transaction, len(s.txs))
	for i, pd := range s.txs {
		txns[i] = pd.tx
		if d := ctx.Dist(n.id, pd.tx.Node); d > notify {
			notify = d
		}
	}
	p := n.problem(txns, now+core.Time(notify), s.granted)
	asgn, err := n.cfg.batch.Schedule(p)
	if err != nil {
		n.err = fmt.Errorf("distbucket: node %d: batch schedule: %w", n.id, err)
		return
	}
	for _, pd := range s.txs {
		// Algorithm 3 line 7: when the bucket activates, the *objects* are
		// informed of the schedule — object itineraries take effect at the
		// leader's announce time. Recording the decision here (rather than
		// at decideMsg delivery) keeps itinerary updates in the same order
		// the home reservations serialized the sessions; applying them at
		// delivery time can send an object toward a later user before an
		// earlier user's announcement lands, a detour the availability
		// floors do not cover. The decideMsg below still notifies the
		// transaction's node (its execution time already budgets that
		// trip via the notify slack).
		n.decisions = append(n.decisions, decision{tx: pd.tx.ID, exec: asgn[pd.tx.ID]})
		ctx.Send(pd.tx.Node, decideMsg{Tx: pd.tx.ID, Exec: asgn[pd.tx.ID]})
	}
	// New availability per object: its last user in this schedule.
	for _, o := range s.objs {
		last := s.granted[o]
		for _, pd := range s.txs {
			for _, oo := range pd.tx.Objects {
				if oo == o && asgn[pd.tx.ID] >= last.Free {
					last = batch.Avail{Node: pd.tx.Node, Free: asgn[pd.tx.ID]}
				}
			}
		}
		n.known[o] = last
		n.sendRelease(ctx, releaseMsg{Obj: o, Session: s.id, NewAvail: last})
	}
	n.sess = nil
	// Re-arm timers for anything still waiting, then start the next due
	// session, if any.
	for key, pds := range n.buckets {
		if len(pds) > 0 {
			ctx.WakeAt(nextBoundary(now+1, key.level))
		}
	}
	n.maybeStartSession(ctx)
}

// sendRelease issues one home release and, on faulty networks, buffers it
// for retransmission until the home acknowledges.
func (n *node) sendRelease(ctx *distnet.Ctx, m releaseMsg) {
	ctx.Send(n.cfg.home(m.Obj), m)
	if n.cfg.faulty {
		key := objSession{obj: m.Obj, sess: m.Session}
		n.relBuf[key] = m
		n.track(ctx, &pending{kind: pendRelease, obj: m.Obj, session: m.Session, dst: n.cfg.home(m.Obj)})
	}
}

// onRelease updates the home's availability and grants the next waiting
// leader, if any. Under faults it additionally handles restore-releases
// from abandoned sessions (which may still sit in the queue, or hold the
// object via a grant the leader never saw) and re-acks duplicates.
func (n *node) onRelease(ctx *distnet.Ctx, from graph.NodeID, m releaseMsg) {
	n.cfg.met.releases.Inc()
	key := objSession{obj: m.Obj, sess: m.Session}
	if n.cfg.faulty {
		if n.finishedSess[key] {
			ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
			return
		}
	}
	r := n.reserved[m.Obj]
	if r == nil || r.holderSession != m.Session {
		if !n.cfg.faulty {
			return
		}
		// An abandoned session releasing an object it never held: drop it
		// from the wait queue if it is there, and remember the session is
		// over so late reserve retries do not re-enter it.
		if r != nil {
			for i, q := range r.queue {
				if q.session == m.Session {
					r.queue = append(r.queue[:i], r.queue[i+1:]...)
					break
				}
			}
		}
		n.finishedSess[key] = true
		ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
		return
	}
	if !m.Restore {
		n.avail[m.Obj] = m.NewAvail
	}
	if n.cfg.faulty {
		n.finishedSess[key] = true
		ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
	}
	avail := m.NewAvail
	if m.Restore {
		if a, ok := n.avail[m.Obj]; ok {
			avail = a
		} else {
			obj := n.cfg.in.Objects[m.Obj]
			avail = batch.Avail{Node: obj.Origin, Free: obj.Created}
		}
	}
	if len(r.queue) == 0 {
		delete(n.reserved, m.Obj)
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.holderSession = next.session
	r.holderNode = next.node
	r.holderAvail = avail
	ctx.Send(next.node, grantMsg{Obj: m.Obj, Session: next.session, Avail: avail})
}
