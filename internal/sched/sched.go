// Package sched defines the online scheduler interface and the central
// drivers that bind a scheduler to its arrivals — a finite instance (Run),
// a streaming source (RunStream) or the closed-loop process
// (RunClosedLoop) — run the synchronous model to completion, and measure
// the empirical competitive ratio of Definition 1 in Busch et al. (IPPS
// 2020). All three share one setup (start) and one arrival and wake loop
// (drive), so a scheduler sees the same protocol and the same failure
// rules under each.
//
// The driver realizes the "central authority with instant knowledge"
// abstraction of Sections III and IV: the scheduler observes arrivals and
// object positions with zero latency. The decentralized protocols of
// Section V are built separately on internal/distnet and internal/distbucket
// and pay explicit message latencies.
package sched

import (
	"fmt"
	"time"

	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/lowerbound"
	"dtm/internal/obs"
	"dtm/internal/par"
	"dtm/internal/stats"
)

// Env gives a scheduler oracle access to the running simulation.
type Env struct {
	Sim *core.Sim
	G   *graph.Graph
	// Obs is the run's observability registry (nil when disabled);
	// schedulers register their own instruments from Start.
	Obs *obs.Metrics
	// Scratch is the run's pooled scratch-buffer set. The drivers populate
	// it and return it to the pool when the run ends, so schedulers must
	// not retain it past the run. May be nil under custom drivers;
	// schedulers fall back to fetching their own.
	Scratch *depgraph.Scratch
	// Par is the run's phase-runner, built from SimOptions.Parallel (nil =
	// sequential, the default). A scheduler may fan per-arrival read-only
	// work out over it — greedy's forbidden-interval gather against the
	// conflict index is the one that does — provided every Sim/obs
	// mutation still happens on the driver goroutine in the sequential
	// engine's order (DESIGN.md §12). Schedulers whose decisions depend on
	// mid-batch mutation order must ignore it.
	Par *par.Runner
}

// Scheduler is an online transaction scheduling algorithm. Implementations
// assign irrevocable execution times via Env.Sim.Decide, either immediately
// in OnArrive (greedy) or later from OnWake (bucket activations, epoch
// boundaries).
type Scheduler interface {
	Name() string
	// Start binds the scheduler to a run; called once before any arrivals.
	Start(env *Env) error
	// OnArrive delivers the transactions generated at the current time.
	OnArrive(txns []*core.Transaction) error
	// NextWake returns the next time OnWake should run, if the scheduler
	// has deferred work pending.
	NextWake() (core.Time, bool)
	// OnWake runs deferred work at the time previously returned by NextWake.
	OnWake() error
}

// Snapshot captures the live state at one observation time; ratios are
// computed post-hoc once every execution time is known.
type Snapshot struct {
	At   core.Time
	Live []core.TxID
	LB   core.Time // lower bound on the optimal duration t* from At
}

// RatioPoint is a finished snapshot: the empirical competitive ratio at one
// observation time.
type RatioPoint struct {
	At       core.Time
	LiveTxns int
	MaxRem   core.Time // max remaining duration over live transactions
	LB       core.Time
	Ratio    float64 // MaxRem / LB
}

// RunResult bundles the execution metrics with the competitive-ratio trace.
type RunResult struct {
	*core.Result
	Scheduler string
	Ratios    []RatioPoint
	MaxRatio  float64
	// Decisions is the full decision log (sorted by decision time), enough
	// to replay and re-validate the run with core.Replay.
	Decisions []core.Decision
	// Abandoned lists transactions the run gave up on instead of executing
	// (sorted by ID). Always empty for the central drivers; the distributed
	// driver populates it under an injected fault plan when recovery is
	// exhausted (crashed origins, lost sessions). A run with abandoned
	// transactions but Failed == false degraded gracefully: every other
	// transaction executed and the ratio trace covers only those.
	Abandoned []core.TxID
	// Failed reports that the run did not finish cleanly — the scheduler
	// misbehaved, left transactions unscheduled, or the schedule violated
	// the model — and Err carries the cause. Err supersedes the embedded
	// core Result's Err (it includes driver-level failures the engine
	// never sees).
	Failed bool
	Err    error
	// Metrics is the observability snapshot taken when the result was
	// built; nil unless the run was given an obs registry.
	Metrics *obs.Snapshot
}

// EngineOptions is the argument of the engine registry's constructors
// (engine.Desc.New). It carries no knobs: every central engine has one
// scheduling path, and its from-scratch reference is test code in the
// root package (engine_ref_test.go).
type EngineOptions struct{}

// Options configure a driver run.
type Options struct {
	Sim core.SimOptions
	// SnapshotEvery takes a competitive-ratio snapshot at every k-th
	// delivered arrival batch (0 or 1 = every one; <0 disables snapshots).
	// A batch is every transaction arriving at one time.
	SnapshotEvery int
	// Obs, when set, collects metrics across the driver, the engine, and
	// the scheduler, and is snapshotted into RunResult.Metrics. It is
	// threaded into the Sim (unless Sim.Obs is already set) and exposed
	// to schedulers via Env.Obs.
	Obs *obs.Metrics
}

// driverMetrics holds the drive core's instrument handles; all nil (and
// free) when observability is disabled.
type driverMetrics struct {
	arrivals *obs.Counter   // sched.arrivals: transactions delivered
	wakeups  *obs.Counter   // sched.wakeups: OnWake invocations
	snaps    *obs.Counter   // sched.snapshots: ratio snapshots taken
	snapLive *obs.Histogram // sched.snapshot_live: live-set size per snapshot
	snapNs   *obs.Histogram // sched.snapshot_ns: wall-clock cost of a snapshot
	live     *obs.Gauge     // sched.live_txns: live-set size at snapshots and at the end
}

func newDriverMetrics(m *obs.Metrics) driverMetrics {
	if m == nil {
		return driverMetrics{}
	}
	return driverMetrics{
		arrivals: m.Counter(obs.NameSchedArrivals),
		wakeups:  m.Counter(obs.NameSchedWakeups),
		snaps:    m.Counter(obs.NameSchedSnapshots),
		snapLive: m.Histogram(obs.NameSchedSnapshotLive, obs.PowersOfTwo(14)),
		snapNs:   m.Histogram(obs.NameSchedSnapshotNs, obs.PowersOfTwo(36)),
		live:     m.Gauge(obs.NameSchedLiveTxns),
	}
}

// observedSnapshot takes a ratio snapshot and records its live-set size
// and wall-clock latency.
func observedSnapshot(sim *core.Sim, t core.Time, m *obs.Metrics, dm driverMetrics) Snapshot {
	var start time.Time
	if m != nil {
		//lint:ignore detclock sched.snapshot_ns measures the wall-clock cost of snapshotting; it never feeds a scheduling decision or the decision log
		start = time.Now()
	}
	sn := TakeSnapshot(sim, t)
	if m != nil {
		//lint:ignore detclock wall-clock observability companion to the time.Now above; decisions never read it
		dm.snapNs.Observe(time.Since(start).Nanoseconds())
		dm.snaps.Inc()
		dm.snapLive.Observe(int64(len(sn.Live)))
		dm.live.Set(int64(len(sn.Live)))
	}
	return sn
}

// setFinalLive sets sched.live_txns to the live-set size when the run
// ends — transactions arrived by now but not executed — so the gauge does
// not keep the last snapshot's value: 0 after a clean drain.
func (dm driverMetrics) setFinalLive(sim *core.Sim) {
	if dm.live == nil {
		return
	}
	live := 0
	for _, tx := range sim.Instance().Txns {
		if _, done := sim.Executed(tx.ID); !done && tx.Arrival <= sim.Now() {
			live++
		}
	}
	dm.live.Set(int64(live))
}

// Run executes the scheduler against the instance to completion and
// computes the competitive-ratio trace: the drive core over the
// instance's own arrivals, with no stream behind them.
func Run(in *core.Instance, s Scheduler, opts Options) (*RunResult, error) {
	return run(in, s, "", noStream{}, opts)
}

// noStream is the arrival stream of a finite instance: always exhausted,
// so every arrival the drive core delivers comes from the instance.
type noStream struct{}

func (noStream) peek() (core.Time, bool) { return 0, false }
func (noStream) pop(core.TxID) (*core.Transaction, error) {
	return nil, fmt.Errorf("sched: pop from an empty stream")
}
func (noStream) observe(*core.Sim) error { return nil }
func (noStream) exhausted() bool         { return true }
func (noStream) feedback() bool          { return false }

// start is the setup every central driver shares: it builds the run's
// simulator over in (threading m into it unless simOpts names its own
// registry) and binds s to it through an Env carrying the run's pooled
// scratch and phase-runner. The caller releases env.Scratch when the run
// ends.
func start(in *core.Instance, s Scheduler, simOpts core.SimOptions, m *obs.Metrics) (*Env, error) {
	if simOpts.Obs == nil {
		simOpts.Obs = m
	}
	sim, err := core.NewSim(in, simOpts)
	if err != nil {
		return nil, err
	}
	env := &Env{Sim: sim, G: in.G, Obs: m, Scratch: depgraph.GetScratch(),
		Par: par.FromOption(simOpts.Parallel)}
	if err := s.Start(env); err != nil {
		env.Scratch.Release()
		return nil, fmt.Errorf("sched: %s start: %w", s.Name(), err)
	}
	return env, nil
}

// run is the path Run and RunClosedLoop share: start, drive the instance
// and the stream, and build the result under the scheduler's name plus
// suffix. A failed run returns its partial result, marked Failed with the
// driver error so callers can tell it from a finished one.
func run(in *core.Instance, s Scheduler, suffix string, stream arrivalStream, opts Options) (*RunResult, error) {
	env, err := start(in, s, opts.Sim, opts.Obs)
	if err != nil {
		return nil, err
	}
	defer env.Scratch.Release()
	snaps, err := drive(env.Sim, in, s, stream, driveOpts{snapEvery: opts.SnapshotEvery, obs: opts.Obs})
	rr := BuildResult(env.Sim, s.Name()+suffix, snaps, opts.Obs)
	if err != nil {
		rr.Failed, rr.Err = true, err
	}
	return rr, err
}

// TakeSnapshot records the live set and the OPT lower bound at time t.
// Live means arrived but not yet executed (a transaction executing exactly
// at t is included; its remaining duration is 0). The distributed drivers
// share it so all schedulers are measured identically.
func TakeSnapshot(sim *core.Sim, t core.Time) Snapshot {
	in := sim.Instance()
	var live []*core.Transaction
	for _, tx := range in.Txns {
		if tx.Arrival > t {
			continue
		}
		if et, ok := sim.Executed(tx.ID); ok && et < t {
			continue
		}
		live = append(live, tx)
	}
	ids := make([]core.TxID, len(live))
	for i, tx := range live {
		ids[i] = tx.ID
	}
	lb := lowerbound.Estimate(lowerbound.Input{
		G:     in.G,
		Now:   t,
		Txns:  live,
		Avail: lowerbound.SnapshotAvail(sim, live),
	})
	return Snapshot{At: t, Live: ids, LB: lb}
}

// BuildResult computes the competitive-ratio trace from snapshots once
// every execution time is known, and bundles the run metrics together
// with a snapshot of the obs registry (if any).
func BuildResult(sim *core.Sim, name string, snaps []Snapshot, m *obs.Metrics) *RunResult {
	rr := &RunResult{Result: sim.Result(), Scheduler: name}
	rr.Err = sim.Failed()
	rr.Failed = rr.Err != nil
	rr.Metrics = m.Snapshot()
	rr.Decisions = harvestDecisions(sim)
	for _, sn := range snaps {
		var maxRem core.Time
		for _, id := range sn.Live {
			exec, ok := sim.Scheduled(id)
			if !ok {
				continue // failed run: unscheduled live transaction
			}
			if rem := exec - sn.At; rem > maxRem {
				maxRem = rem
			}
		}
		rp := RatioPoint{
			At:       sn.At,
			LiveTxns: len(sn.Live),
			MaxRem:   maxRem,
			LB:       sn.LB,
			Ratio:    float64(maxRem) / float64(sn.LB),
		}
		rr.Ratios = append(rr.Ratios, rp)
		if rp.Ratio > rr.MaxRatio {
			rr.MaxRatio = rp.Ratio
		}
	}
	return rr
}

// CompletionRate returns the fraction of transactions that executed:
// 1 minus the abandoned share. 1.0 for every fault-free run.
func (rr *RunResult) CompletionRate() float64 {
	n := len(rr.Latency)
	if n == 0 {
		return 1
	}
	return float64(n-len(rr.Abandoned)) / float64(n)
}

// ratioSamples extracts the per-snapshot ratios as a float sample.
func (rr *RunResult) ratioSamples() []float64 {
	xs := make([]float64, len(rr.Ratios))
	for i, r := range rr.Ratios {
		xs[i] = r.Ratio
	}
	return xs
}

// MeanRatio returns the mean of the per-snapshot competitive ratios.
func (rr *RunResult) MeanRatio() float64 {
	return stats.Mean(rr.ratioSamples())
}

// P95Ratio returns the 95th-percentile (nearest-rank) per-snapshot ratio.
func (rr *RunResult) P95Ratio() float64 {
	return stats.Percentile(rr.ratioSamples(), 0.95)
}
