package distbucket

import (
	"fmt"
	"math/bits"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// Options configure a distributed bucket run. The embedded sched.Options
// carries the driver knobs shared with the central drivers — Sim (whose
// SlowFactor here defaults to the paper's Section V value 2: control
// messages at full speed, objects at half), SnapshotEvery, and Obs.
type Options struct {
	sched.Options
	// Batch is the offline algorithm A to convert. Nil means batch.Tour,
	// the paper's TSP-tour batch scheduler.
	Batch batch.Scheduler
	// Seed drives the randomized sparse cover construction, and doubles as
	// the fault plan's RNG seed when Faults.Plan.Seed is left 0.
	Seed int64
	// Parallel runs the network engine with goroutine-per-node steps.
	Parallel bool
	// MaxLevel caps bucket levels; 0 means the Lemma 3 bound.
	MaxLevel int
	// Faults injects deterministic network faults and configures the
	// recovery layer. The zero value is the paper's failure-free model.
	Faults FaultOptions
}

// FaultOptions bundles the injected network fault plan with the recovery
// layer's retry knobs.
type FaultOptions struct {
	// Plan describes the unreliable network (see distnet.FaultPlan). A
	// zero plan disables fault injection and the recovery layer entirely.
	Plan distnet.FaultPlan
	// RetrySlack is the base backoff step added to a request's worst-case
	// round trip before the first retry; it doubles per consecutive
	// unanswered attempt. 0 means 2 steps.
	RetrySlack core.Time
	// BackoffCap bounds the exponential backoff. 0 means 64 steps.
	BackoffCap core.Time
	// MaxAttempts is how many consecutive unanswered attempts a request
	// survives before the protocol gives up on it (abandoning the
	// transaction or session). 0 means 30.
	MaxAttempts int
}

// Result bundles the run metrics with protocol statistics. The embedded
// sched.RunResult carries the shared result surface (Metrics, Failed, Err,
// Decisions, Abandoned, CompletionRate) so callers consume one shape across
// the central and distributed drivers.
type Result struct {
	*sched.RunResult
	Audit       Audit
	Messages    int
	MsgDistance graph.Weight
	CoverLayers int
	SubLayers   int
	// Abandoned details the transactions the run gave up on under faults
	// (sorted by ID), with per-transaction reasons; the bare IDs are also
	// mirrored into RunResult.Abandoned. Empty on fault-free runs.
	Abandoned []AbandonedTx
	// Lemma 6 audit: pairs of concurrently-live conflicting transactions
	// that reported into the same sub-layer, and how many of those landed
	// in different clusters (the paper proves zero under chase-based
	// discovery; the home-directory substitution can miss concurrent
	// discoveries, which is why safety here rests on home reservations
	// instead — see the package comment).
	Lemma6Pairs      int
	Lemma6Violations int
}

// Run executes Algorithm 3 on the instance: the network protocol computes
// every scheduling decision with real message latencies while the core
// engine enforces object physics at the configured slow factor, in
// lockstep.
func Run(in *core.Instance, opts Options) (*Result, error) {
	if opts.Batch == nil {
		opts.Batch = batch.Tour{}
	}
	plan := opts.Faults.Plan
	if plan.Enabled() && plan.Seed == 0 {
		plan.Seed = opts.Seed
	}
	faulty := plan.Enabled()
	simOpts := opts.Sim
	if simOpts.SlowFactor == 0 {
		simOpts.SlowFactor = 2
	}
	if simOpts.Obs == nil {
		simOpts.Obs = opts.Obs
	}
	slow := simOpts.SlowFactor
	hier, err := cover.Build(in.G, opts.Seed)
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSim(in, simOpts)
	if err != nil {
		return nil, err
	}
	maxLevel := opts.MaxLevel
	if maxLevel <= 0 {
		nd := uint64(in.G.N()) * uint64(in.G.Diameter()) * uint64(slow)
		if nd < 2 {
			nd = 2
		}
		maxLevel = bits.Len64(nd-1) + 1
	}
	cfg := &config{
		in:          in,
		g:           in.G,
		hier:        hier,
		batch:       opts.Batch,
		slow:        graph.Weight(slow),
		maxLevel:    maxLevel,
		met:         newProtoMetrics(opts.Obs),
		obs:         opts.Obs,
		faulty:      faulty,
		maxJitter:   plan.MaxJitter,
		slack:       defaultTime(opts.Faults.RetrySlack, 2),
		backoffCap:  defaultTime(opts.Faults.BackoffCap, 64),
		maxAttempts: defaultInt(opts.Faults.MaxAttempts, 30),
	}
	nodes := make([]*node, in.G.N())
	handlers := make([]distnet.Handler, in.G.N())
	for i := range nodes {
		nodes[i] = newNode(cfg, graph.NodeID(i))
		handlers[i] = nodes[i]
	}
	net, err := distnet.New(in.G, handlers, distnet.Options{Parallel: opts.Parallel, Faults: plan, Obs: opts.Obs})
	if err != nil {
		return nil, err
	}

	arrivals := in.ArrivalTimes()
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1
	}
	metArrivals := opts.Obs.Counter(obs.NameSchedArrivals)
	metSnaps := opts.Obs.Counter(obs.NameSchedSnapshots)
	var snaps []sched.Snapshot

	// driverAbandoned records transactions the driver itself gave up on
	// (arrivals at crashed origins); node handlers record their own.
	var driverAbandoned []AbandonedTx

	// collectAbandoned merges the driver's and every node's abandoned
	// transactions, drops any that were scheduled after all (a lost ack can
	// make an origin give up on a transaction its leader still scheduled),
	// dedups, and sorts by ID for determinism.
	collectAbandoned := func() ([]AbandonedTx, map[core.TxID]bool) {
		seen := make(map[core.TxID]bool)
		var ab []AbandonedTx
		add := func(a AbandonedTx) {
			if _, ok := sim.Scheduled(a.Tx); ok {
				return
			}
			if !seen[a.Tx] {
				seen[a.Tx] = true
				ab = append(ab, a)
			}
		}
		for _, a := range driverAbandoned {
			add(a)
		}
		for _, nd := range nodes {
			for _, a := range nd.abandoned {
				add(a)
			}
		}
		sort.Slice(ab, func(i, j int) bool { return ab[i].Tx < ab[j].Tx })
		return ab, seen
	}

	// buildResult assembles the full Result from whatever has happened so
	// far; fail marks it with the driver error, consistently with the
	// central drivers.
	buildResult := func() *Result {
		res := &Result{
			RunResult:   sched.BuildResult(sim, fmt.Sprintf("distbucket(%s)", opts.Batch.Name()), snaps, opts.Obs),
			Audit:       Audit{LayerCounts: make(map[int]int)},
			Messages:    net.MessagesSent(),
			MsgDistance: net.MessageDistance(),
			CoverLayers: hier.NumLayers(),
			SubLayers:   hier.MaxSubLayers(),
		}
		res.Abandoned, _ = collectAbandoned()
		for _, a := range res.Abandoned {
			res.RunResult.Abandoned = append(res.RunResult.Abandoned, a.Tx)
		}
		for _, nd := range nodes {
			res.Audit.merge(nd.audit)
		}
		return res
	}
	fail := func(err error) (*Result, error) {
		res := buildResult()
		res.Failed = true
		res.Err = err
		return res, err
	}

	ai := 0
	for !sim.AllExecuted() {
		// Next event across the three clocks.
		t := core.Time(-1)
		take := func(x core.Time) {
			if t < 0 || x < t {
				t = x
			}
		}
		if ai < len(arrivals) {
			take(arrivals[ai])
		}
		if nt, ok := net.NextEvent(); ok {
			take(nt)
		}
		if st, ok := sim.NextInternalEvent(); ok {
			take(st)
		}
		if t < 0 {
			// No events anywhere. Either the protocol abandoned the rest
			// (graceful degradation, decided below) or it genuinely stalled.
			break
		}
		if err := sim.AdvanceTo(t); err != nil {
			return fail(err)
		}
		if ai < len(arrivals) && arrivals[ai] == t {
			if snapEvery > 0 && ai%snapEvery == 0 {
				snaps = append(snaps, sched.TakeSnapshot(sim, t))
				metSnaps.Inc()
			}
			txns := in.TxnsArriving(t)
			metArrivals.Add(int64(len(txns)))
			for _, tx := range txns {
				if faulty && plan.CrashedAt(tx.Node, t) {
					// The origin is down when its transaction arrives: with
					// no process to start discovery, the transaction is
					// reported abandoned rather than silently lost.
					driverAbandoned = append(driverAbandoned, AbandonedTx{
						Tx:     tx.ID,
						Reason: fmt.Sprintf("origin node %d crashed at arrival t=%d", tx.Node, t),
					})
					cfg.met.abandoned.Inc()
					continue
				}
				if err := net.InjectAt(t, tx.Node, arrivalMsg{Tx: tx.ID}); err != nil {
					return fail(err)
				}
			}
			ai++
		}
		if err := net.RunUntil(t); err != nil {
			return fail(err)
		}
		for _, nd := range nodes {
			if nd.err != nil {
				return fail(nd.err)
			}
		}
		// Apply freshly announced decisions to the physics.
		for _, nd := range nodes {
			for _, d := range nd.decisions {
				if err := sim.Decide(d.tx, d.exec); err != nil {
					return fail(fmt.Errorf("distbucket: applying decision for tx %d: %w", d.tx, err))
				}
			}
			nd.decisions = nd.decisions[:0]
		}
	}
	if !sim.AllExecuted() {
		// The event queues drained early: acceptable only if every
		// unexecuted transaction was explicitly abandoned.
		_, abandoned := collectAbandoned()
		for _, tx := range in.Txns {
			if _, done := sim.Executed(tx.ID); !done && !abandoned[tx.ID] {
				return fail(fmt.Errorf("distbucket: protocol stalled at t=%d with unexecuted transaction %d", sim.Now(), tx.ID))
			}
		}
	}
	res := buildResult()
	res.Lemma6Pairs, res.Lemma6Violations = lemma6Audit(in, sim, nodes)
	return res, nil
}

func defaultTime(v, def core.Time) core.Time {
	if v > 0 {
		return v
	}
	return def
}

func defaultInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// lemma6Audit counts concurrently-live conflicting transaction pairs that
// chose the same sub-layer, and how many of those chose different clusters.
func lemma6Audit(in *core.Instance, sim *core.Sim, nodes []*node) (pairs, violations int) {
	refs := make(map[core.TxID]clusterRef)
	for _, nd := range nodes {
		for tx, ref := range nd.reported {
			refs[tx] = ref
		}
	}
	type span struct{ a, b core.Time }
	live := func(tx *core.Transaction) span {
		e, _ := sim.Executed(tx.ID)
		return span{a: tx.Arrival, b: e}
	}
	for i := 0; i < len(in.Txns); i++ {
		ri, ok := refs[in.Txns[i].ID]
		if !ok {
			continue
		}
		si := live(in.Txns[i])
		for j := i + 1; j < len(in.Txns); j++ {
			rj, ok := refs[in.Txns[j].ID]
			if !ok || !in.Txns[i].Conflicts(in.Txns[j]) {
				continue
			}
			sj := live(in.Txns[j])
			if si.b < sj.a || sj.b < si.a {
				continue // never live together
			}
			if ri.Layer == rj.Layer && ri.SubLayer == rj.SubLayer {
				pairs++
				if ri.Index != rj.Index {
					violations++
				}
			}
		}
	}
	return pairs, violations
}
