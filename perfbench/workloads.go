package main

import (
	"fmt"
	"sort"

	"dtm/internal/core"
	"dtm/internal/distbucket"
	"dtm/internal/distnet"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/lowerbound"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// kind selects the public entry point a workload runs through.
type kind int

const (
	closedRun kind = iota // sched.Run on a finite instance
	streamRun             // sched.RunStream on a generative source
	distRun               // distbucket.Run (Algorithm 3)
)

// spec is one benchmark workload: a topology, an input generator and the
// registry engine that schedules it. BENCHMARK.json and README.md say why
// each workload is in the benchmark.
type spec struct {
	name   string
	kind   kind
	engine string // internal/engine registry ID
	graph  func() (*graph.Graph, error)
	// gen builds the workload's inputs on g from the workload seed.
	gen func(g *graph.Graph, seed int64) (*inputs, error)
	// replicas is how many independent instances one run measures; the
	// simulated metrics are their mean, which keeps seed-to-seed spread low.
	replicas int
}

// inputs is one set-up: a fresh graph (no shortest-path tree built yet)
// and the inputs generated on it.
type inputs struct {
	g       *graph.Graph
	in      *core.Instance // closed and distributed workloads
	objects []*core.Object // stream workload
	src     workload.StreamConfig
	maxArr  int64
	dist    distbucket.Options // distributed workload, minus Obs/Parallel
}

// Seed streams: every generated input draws from its own stream of the
// workload seed, so adding an input never shifts another.
const (
	streamInstance = iota + 1
	streamObjects
	streamSource
	streamCover
	streamFaults
	streamReplica // replica r draws from stream streamReplica+r
)

// subSeed derives an independent seed for one input stream (splitmix64).
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// specs returns the four workloads at full size, or at a size small enough
// for the package test when tiny is set.
func specs(tiny bool) []*spec {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	side := pick(32, 8)
	lineN := pick(256, 32)
	rays := pick(1023, 63)
	arrivals := int64(pick(20000, 2000))
	alpha := pick(32, 8)
	return []*spec{
		{
			name:     "greedy-grid",
			kind:     closedRun,
			engine:   "greedy",
			replicas: 8,
			graph:    func() (*graph.Graph, error) { return graph.Grid(side, side) },
			gen: func(g *graph.Graph, seed int64) (*inputs, error) {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: g.N() / 8, Rounds: 1,
					Arrival: workload.ArrivalBatch, Seed: subSeed(seed, streamInstance),
				})
				return &inputs{g: g, in: in}, err
			},
		},
		{
			name:     "bucket-line",
			kind:     closedRun,
			engine:   "bucket-tour",
			replicas: 8,
			graph:    func() (*graph.Graph, error) { return graph.Line(lineN) },
			gen: func(g *graph.Graph, seed int64) (*inputs, error) {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: g.N() / 2, Rounds: 4,
					Arrival: workload.ArrivalPoisson, Period: 8, Seed: subSeed(seed, streamInstance),
				})
				return &inputs{g: g, in: in}, err
			},
		},
		{
			name:     "window-stream",
			kind:     streamRun,
			engine:   "window",
			replicas: 8,
			graph:    func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: rays, RayLen: 1}) },
			gen: func(g *graph.Graph, seed int64) (*inputs, error) {
				const numObjects = 1024
				nobj := min(numObjects, g.N())
				return &inputs{
					g:       g,
					objects: workload.UniformObjects(g, nobj, subSeed(seed, streamObjects)),
					src: workload.StreamConfig{
						K: 2, NumObjects: nobj, Rate: 8, Seed: subSeed(seed, streamSource),
					},
					maxArr: arrivals,
				}, nil
			},
		},
		{
			name:     "distributed-cluster",
			kind:     distRun,
			engine:   "distributed",
			replicas: 8,
			graph: func() (*graph.Graph, error) {
				return graph.Cluster(graph.ClusterSpec{Alpha: alpha, Beta: 8, Gamma: 8})
			},
			gen: func(g *graph.Graph, seed int64) (*inputs, error) {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: g.N() / 2, Rounds: 2,
					Arrival: workload.ArrivalPeriodic, Period: 16, Seed: subSeed(seed, streamInstance),
				})
				return &inputs{g: g, in: in, dist: distbucket.Options{
					Seed:   subSeed(seed, streamCover),
					Faults: distbucket.FaultOptions{Plan: distnet.FaultPlan{Drop: 0.05, Seed: subSeed(seed, streamFaults)}},
				}}, err
			},
		},
	}
}

func specByName(name string, tiny bool) (*spec, error) {
	var names []string
	for _, s := range specs(tiny) {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setup builds a fresh graph and the inputs of one replica on it.
func (s *spec) setup(seed int64, replica int) (*inputs, error) {
	g, err := s.graph()
	if err != nil {
		return nil, fmt.Errorf("%s: graph: %w", s.name, err)
	}
	inp, err := s.gen(g, subSeed(seed, streamReplica+replica))
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", s.name, err)
	}
	return inp, nil
}

// arrivals is the number of transactions one run submits.
func (inp *inputs) arrivals() int {
	if inp.in != nil {
		return len(inp.in.Txns)
	}
	return int(inp.maxArr)
}

// runOpts select the parallel width and the optional instrumentation of
// one run. The zero value is an untraced sequential run.
type runOpts struct {
	parallel int          // P: 1 or 2
	obs      *obs.Metrics // obs registry, nil = off (streams always keep one)
	layers   *layerTimes  // wrap the engine and the source with timers
	collect  bool         // streams: keep history and collect the decision log
}

// outcome is what one run produced.
type outcome struct {
	arrivals  int
	committed int
	abandoned []core.TxID
	decisions []core.Decision // nil for a retiring stream run
	result    *core.Result    // per-transaction latencies; nil for a retiring stream run
	makespan  core.Time
	meanLat   float64
	totalComm graph.Weight
	maxRatio  float64 // closed and distributed drivers only
	messages  int
	metrics   *obs.Snapshot
}

// run executes the workload once on inp through its public entry point.
// A run that fails returns an error; the outcome then is nil.
func (s *spec) run(inp *inputs, ro runOpts) (*outcome, error) {
	desc, ok := engine.ByID(s.engine)
	if !ok {
		return nil, fmt.Errorf("%s: engine %q not registered", s.name, s.engine)
	}
	simOpts := core.SimOptions{Parallel: ro.parallel}
	switch s.kind {
	case distRun:
		if !desc.Caps.Distributed {
			return nil, fmt.Errorf("%s: engine %q is not distributed", s.name, s.engine)
		}
		opts := inp.dist
		opts.Options = sched.Options{Sim: simOpts, Obs: ro.obs}
		opts.Parallel = ro.parallel > 1
		res, err := distbucket.Run(inp.in, opts)
		if err == nil && res.Failed {
			err = res.Err
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out := closedOutcome(res.RunResult)
		out.messages = res.Messages
		return out, nil
	case streamRun:
		src, err := workload.NewPoissonSource(inp.g, inp.src)
		if err != nil {
			return nil, fmt.Errorf("%s: source: %w", s.name, err)
		}
		if ro.layers != nil {
			src = &timedSource{inner: src, t: ro.layers}
		}
		sr, err := sched.RunStream(inp.g, inp.objects, src, newScheduler(desc, ro.layers), sched.StreamOptions{
			Sim: simOpts, Obs: ro.obs, MaxArrivals: inp.maxArr, CollectDecisions: ro.collect,
		})
		if err == nil && sr.Failed {
			err = sr.Err
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		return &outcome{
			arrivals:  int(sr.Arrivals),
			committed: int(sr.Completed),
			decisions: sr.Decisions,
			makespan:  sr.Makespan,
			meanLat:   sr.MeanSojourn,
			totalComm: sr.TotalComm,
			metrics:   sr.Metrics,
		}, nil
	default:
		rr, err := sched.Run(inp.in, newScheduler(desc, ro.layers), sched.Options{Sim: simOpts, Obs: ro.obs})
		if err == nil && rr.Failed {
			err = rr.Err
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		return closedOutcome(rr), nil
	}
}

// newScheduler builds the registry engine, wrapped with layer timers when
// layers is set.
func newScheduler(desc engine.Desc, layers *layerTimes) sched.Scheduler {
	eng := desc.New(sched.EngineOptions{})
	if layers == nil {
		return eng
	}
	return &timedScheduler{inner: eng, t: layers}
}

func closedOutcome(rr *sched.RunResult) *outcome {
	n := len(rr.Latency)
	committed := n - len(rr.Abandoned)
	out := &outcome{
		arrivals:  n,
		committed: committed,
		abandoned: rr.Abandoned,
		decisions: rr.Decisions,
		result:    rr.Result,
		makespan:  rr.Makespan,
		totalComm: rr.TotalComm,
		maxRatio:  rr.MaxRatio,
		metrics:   rr.Metrics,
	}
	if committed > 0 {
		out.meanLat = float64(rr.SumLat) / float64(committed)
	}
	return out
}

// materialize pulls the stream workload's arrivals into a finite instance
// whose transaction IDs match the ones RunStream assigns (pull order), so
// the collected decision log can be replayed against it.
func (inp *inputs) materialize() (*core.Instance, error) {
	src, err := workload.NewPoissonSource(inp.g, inp.src)
	if err != nil {
		return nil, err
	}
	in := &core.Instance{G: inp.g, Objects: inp.objects}
	for i := int64(0); i < inp.maxArr; i++ {
		a, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("source exhausted after %d arrivals", i)
		}
		in.Txns = append(in.Txns, &core.Transaction{ID: core.TxID(i), Node: a.Node, Arrival: a.At, Objects: a.Objects})
	}
	return in, nil
}

// streamMaxRatio replays a stream run's decision log step by step and
// measures the competitive ratio at every distinct arrival time, before that
// time's decisions: the closed drivers' default snapshot cadence. It uses
// sched.TakeSnapshot's definition — the live set is every transaction that
// arrived by t and did not execute before t, bounded by lowerbound.Estimate
// over the objects' positions at t — but scans only the in-flight window,
// since stream transactions arrive in ID order. It returns the largest
// ratio of remaining duration to the lower bound.
func streamMaxRatio(in *core.Instance, decisions []core.Decision) (float64, error) {
	sim, err := core.NewSim(in, core.SimOptions{})
	if err != nil {
		return 0, err
	}
	exec := make([]core.Time, len(in.Txns))
	for _, d := range decisions {
		exec[d.Tx] = d.Exec
	}
	var best float64
	var live []*core.Transaction
	di, lo, hi := 0, 0, 0
	for _, t := range in.ArrivalTimes() {
		for di < len(decisions) && decisions[di].At < t {
			at := decisions[di].At
			if err := sim.AdvanceTo(at); err != nil {
				return 0, err
			}
			for ; di < len(decisions) && decisions[di].At == at; di++ {
				if err := sim.Decide(decisions[di].Tx, decisions[di].Exec); err != nil {
					return 0, err
				}
			}
		}
		if err := sim.AdvanceTo(t); err != nil {
			return 0, err
		}
		for hi < len(in.Txns) && in.Txns[hi].Arrival <= t {
			hi++
		}
		for lo < hi && exec[lo] < t {
			lo++
		}
		live = live[:0]
		var maxRem core.Time
		for _, tx := range in.Txns[lo:hi] {
			if exec[tx.ID] >= t {
				live = append(live, tx)
				maxRem = max(maxRem, exec[tx.ID]-t)
			}
		}
		lb := lowerbound.Estimate(lowerbound.Input{G: in.G, Now: t, Txns: live, Avail: lowerbound.SnapshotAvail(sim, live)})
		best = max(best, float64(maxRem)/float64(lb))
	}
	return best, nil
}

// simulated computes the simulated end-to-end metrics of a finished run
// from its instance and per-transaction result. They depend only on the
// schedule, so they repeat exactly at a fixed seed and width.
func simulated(in *core.Instance, res *core.Result, abandoned []core.TxID, maxRatio float64) map[string]float64 {
	skip := make(map[core.TxID]bool, len(abandoned))
	for _, id := range abandoned {
		skip[id] = true
	}
	var arr, commit []core.Time
	var lat []core.Time
	for _, tx := range in.Txns {
		arr = append(arr, tx.Arrival)
		if skip[tx.ID] {
			continue
		}
		l := res.Latency[tx.ID]
		lat = append(lat, l)
		commit = append(commit, tx.Arrival+l)
	}
	var sum int64
	for _, l := range lat {
		sum += int64(l)
	}
	n := float64(max(len(lat), 1))
	return map[string]float64{
		"makespan":     float64(res.Makespan),
		"max_ratio":    maxRatio,
		"mean_latency": float64(sum) / n,
		"sojourn_p99":  binnedQuantile(lat, 0.99),
		"queue_peak":   float64(queuePeak(arr, commit)),
		"comm_per_txn": float64(res.TotalComm) / n,
	}
}

// binnedQuantile is the q-quantile of integer step counts, interpolated
// linearly inside the unit bin (v-1, v] that holds it, as for grouped data.
// Unlike the nearest rank it moves smoothly when a few samples change bin.
func binnedQuantile(xs []core.Time, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]core.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	target := q * float64(len(s))
	i := 0
	for {
		v := s[i]
		below := i
		for i < len(s) && s[i] == v {
			i++
		}
		if float64(i) >= target || i == len(s) {
			return float64(v-1) + (target-float64(below))/float64(i-below)
		}
	}
}

// queuePeak is the largest backlog (arrived minus committed, commits at t
// included) seen at a distinct arrival time in the second half of the
// run's arrival times — the steady-state queue, past the warm-up.
func queuePeak(arr, commit []core.Time) int {
	a := append([]core.Time(nil), arr...)
	c := append([]core.Time(nil), commit...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	var times []core.Time
	for i, t := range a {
		if i == 0 || t != a[i-1] {
			times = append(times, t)
		}
	}
	peak, ai, ci := 0, 0, 0
	for k, t := range times {
		for ai < len(a) && a[ai] <= t {
			ai++
		}
		for ci < len(c) && c[ci] <= t {
			ci++
		}
		if k >= len(times)/2 {
			peak = max(peak, ai-ci)
		}
	}
	return peak
}
