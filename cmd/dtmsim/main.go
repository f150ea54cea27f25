// Command dtmsim runs one dynamic-scheduling simulation: build a topology,
// generate a workload, run a scheduler, and print the execution metrics and
// the measured competitive ratio.
//
// Examples:
//
//	dtmsim -topology clique -n 64 -sched greedy -k 4 -rounds 4
//	dtmsim -topology line -n 128 -sched bucket-tour -k 2 -arrival poisson -period 8
//	dtmsim -topology cluster -alpha 8 -beta 8 -gamma 8 -sched distributed -metrics
//	dtmsim -topology hypercube -dim 6 -sched coordinator -trace run.json
//	dtmsim -sched greedy -metrics -events run.jsonl
//
// Open-system streaming mode (-stream) replaces the finite workload with a
// generative arrival source pulled lazily by the bounded-memory driver:
//
//	dtmsim -topology clique -n 64 -sched greedy -stream poisson -rate 2 -arrivals 100000
//	dtmsim -topology star -alpha 4095 -beta 1 -stream poisson -arrivals 10000000 -assertflat
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dtm"
	"dtm/internal/batch"
	"dtm/internal/stats"
)

func main() {
	var (
		topology = flag.String("topology", "clique", "clique|line|ring|grid|hypercube|butterfly|cluster|star|tree|random")
		n        = flag.Int("n", 32, "node count (clique, line, ring, random)")
		dim      = flag.Int("dim", 4, "dimension (hypercube, butterfly)")
		rows     = flag.Int("rows", 4, "grid rows")
		cols     = flag.Int("cols", 4, "grid cols")
		alpha    = flag.Int("alpha", 4, "cluster: number of cliques / star: rays")
		beta     = flag.Int("beta", 4, "cluster: clique size / star: ray length / tree: branching")
		gamma    = flag.Int("gamma", 4, "cluster: bridge weight")
		depth    = flag.Int("depth", 3, "tree depth")
		schedArg = flag.String("sched", "greedy", "engine ID from the registry (greedy|greedy-uniform|coordinator|bucket-tour|bucket-coloring|bucket-list|window|distributed), or 'list' to print it")
		k        = flag.Int("k", 2, "objects per transaction")
		objects  = flag.Int("objects", 0, "number of shared objects (default n)")
		rounds   = flag.Int("rounds", 3, "transactions per node")
		arrival  = flag.String("arrival", "periodic", "batch|periodic|poisson|bursty")
		period   = flag.Int64("period", 0, "arrival period (default 2*diameter)")
		seed     = flag.Int64("seed", 1, "random seed")
		hub      = flag.Int("hub", 0, "coordinator hub node")
		capacity = flag.Int("capacity", 0, "bounded link capacity (0 = unbounded; implies elastic commits)")
		traceOut = flag.String("trace", "", "write a re-validatable JSON trace to this file")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		metrics  = flag.Bool("metrics", false, "collect run metrics and print a JSON report")
		events   = flag.String("events", "", "stream observability events as JSON lines to this file")

		// Open-system streaming mode.
		stream     = flag.String("stream", "", "streaming source: poisson|bursty (replaces -arrival/-rounds with an open-system run)")
		rate       = flag.Float64("rate", 1, "stream: mean arrivals per step, system-wide (λ)")
		arrivals   = flag.Int64("arrivals", 1_000_000, "stream: total arrivals to pull")
		burst      = flag.Int("burst", 8, "stream: arrivals per burst (bursty source)")
		assertflat = flag.Bool("assertflat", false, "stream: exit non-zero unless the queue and live window plateau")
		progress   = flag.Int64("progress", 0, "stream: report progress on stderr every N arrivals (0 = off)")

		// Fault injection (distributed scheduler only).
		drop      = flag.Float64("drop", 0, "fault injection: per-message drop probability (distributed only)")
		dup       = flag.Float64("dup", 0, "fault injection: per-message duplication probability (distributed only)")
		jitter    = flag.Int64("jitter", 0, "fault injection: max extra delivery delay in steps (distributed only)")
		crash     = flag.String("crash", "", "fault injection: crash windows, comma-separated node:from:to (distributed only)")
		faultseed = flag.Int64("faultseed", 0, "fault injection: RNG seed (default -seed)")
	)
	flag.Parse()
	if err := run(params{
		topology: *topology, n: *n, dim: *dim, rows: *rows, cols: *cols,
		alpha: *alpha, beta: *beta, gamma: *gamma, depth: *depth,
		sched: *schedArg, k: *k, objects: *objects, rounds: *rounds,
		arrival: *arrival, period: *period, seed: *seed, hub: *hub,
		capacity: *capacity, traceOut: *traceOut, csv: *csv,
		metrics: *metrics, eventsOut: *events,
		stream: *stream, rate: *rate, arrivals: *arrivals, burst: *burst,
		assertflat: *assertflat, progress: *progress,
		drop: *drop, dup: *dup, jitter: *jitter, crash: *crash, faultseed: *faultseed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dtmsim:", err)
		os.Exit(1)
	}
}

type params struct {
	topology                  string
	n, dim, rows, cols        int
	alpha, beta, gamma, depth int
	sched                     string
	k, objects, rounds        int
	arrival                   string
	period, seed              int64
	hub                       int
	capacity                  int
	traceOut                  string
	csv                       bool
	metrics                   bool
	eventsOut                 string
	stream                    string
	rate                      float64
	arrivals                  int64
	burst                     int
	assertflat                bool
	progress                  int64
	drop, dup                 float64
	jitter, faultseed         int64
	crash                     string
}

// faultPlan builds the injected fault plan from the CLI flags; the zero
// plan (no fault flags) keeps the paper's reliable synchronous model.
func faultPlan(p params) (dtm.FaultPlan, error) {
	plan := dtm.FaultPlan{
		Seed:      p.faultseed,
		Drop:      p.drop,
		Duplicate: p.dup,
		MaxJitter: dtm.Time(p.jitter),
	}
	if p.crash != "" {
		cw, err := dtm.ParseCrashWindows(p.crash)
		if err != nil {
			return plan, err
		}
		plan.Crashes = cw
	}
	return plan, nil
}

func buildGraph(p params) (*dtm.Graph, error) {
	switch p.topology {
	case "clique":
		return dtm.Clique(p.n)
	case "line":
		return dtm.Line(p.n)
	case "ring":
		return dtm.Ring(p.n)
	case "grid":
		return dtm.Grid(p.rows, p.cols)
	case "hypercube":
		return dtm.Hypercube(p.dim)
	case "butterfly":
		return dtm.Butterfly(p.dim)
	case "cluster":
		return dtm.Cluster(dtm.ClusterSpec{Alpha: p.alpha, Beta: p.beta, Gamma: dtm.Weight(p.gamma)})
	case "star":
		return dtm.Star(dtm.StarSpec{Rays: p.alpha, RayLen: p.beta})
	case "tree":
		return dtm.Tree(p.beta, p.depth)
	case "random":
		return dtm.RandomConnected(p.n, p.n, 4, p.seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", p.topology)
	}
}

func arrivalKind(s string) (dtm.WorkloadConfig, error) {
	var cfg dtm.WorkloadConfig
	switch s {
	case "batch":
		cfg.Arrival = dtm.ArrivalBatch
	case "periodic":
		cfg.Arrival = dtm.ArrivalPeriodic
	case "poisson":
		cfg.Arrival = dtm.ArrivalPoisson
	case "bursty":
		cfg.Arrival = dtm.ArrivalBursty
	default:
		return cfg, fmt.Errorf("unknown arrival process %q", s)
	}
	return cfg, nil
}

// buildScheduler resolves one of the centralized schedulers from the
// engine registry (the distributed protocol has its own driver and is
// handled separately). Only the coordinator takes a CLI parameter (-hub),
// so it routes through the concrete constructor; every other engine is the
// registry default.
func buildScheduler(p params) (dtm.Scheduler, error) {
	d, ok := dtm.EngineByID(p.sched)
	if !ok {
		return nil, fmt.Errorf("unknown scheduler %q (run -sched list for the registry)", p.sched)
	}
	if d.ID == "coordinator" && p.hub != 0 {
		return dtm.NewCoordinator(dtm.NodeID(p.hub), dtm.GreedyOptions{}), nil
	}
	return dtm.NewEngine(d.ID)
}

// printEngines lists the registered engines (dtmsim -sched list).
func printEngines(csv bool) error {
	t := stats.NewTable("registered engines (dtmsim -sched <id>)",
		"id", "aliases", "caps", "description")
	for _, d := range dtm.Engines() {
		aliases := strings.Join(d.Aliases, ",")
		if aliases == "" {
			aliases = "-"
		}
		t.AddRow(d.ID, aliases, d.Caps.String(), d.Doc)
	}
	if csv {
		return t.RenderCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

// openMetrics builds the shared observability registry when -metrics or
// -events asks for one; the returned closer flushes the event sink file.
func openMetrics(p params) (*dtm.Metrics, func() error, error) {
	noop := func() error { return nil }
	if !p.metrics && p.eventsOut == "" {
		return nil, noop, nil
	}
	m := dtm.NewMetrics()
	if p.eventsOut == "" {
		return m, noop, nil
	}
	f, err := os.Create(p.eventsOut)
	if err != nil {
		return nil, noop, err
	}
	m.SetSink(dtm.NewJSONLSink(f))
	return m, f.Close, nil
}

func run(p params) error {
	if p.sched == "list" {
		return printEngines(p.csv)
	}
	g, err := buildGraph(p)
	if err != nil {
		return err
	}
	if p.stream != "" {
		return runStream(p, g)
	}
	cfg, err := arrivalKind(p.arrival)
	if err != nil {
		return err
	}
	cfg.K = p.k
	cfg.NumObjects = p.objects
	if cfg.NumObjects == 0 {
		cfg.NumObjects = g.N()
	}
	cfg.Rounds = p.rounds
	cfg.Period = dtm.Time(p.period)
	if cfg.Period == 0 {
		cfg.Period = dtm.Time(g.Diameter()) * 2
	}
	cfg.Seed = p.seed
	in, err := dtm.Generate(g, cfg)
	if err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("dtmsim: %s, %d transactions, %d objects", g, len(in.Txns), len(in.Objects)),
		"scheduler", "makespan", "max latency", "mean latency", "total comm", "max ratio", "mean ratio")
	emit := func() error {
		if p.csv {
			return t.RenderCSV(os.Stdout)
		}
		return t.Render(os.Stdout)
	}

	// One registry covers whichever driver runs below; -events implies
	// collection so the sink has something to stream.
	m, closeSink, err := openMetrics(p)
	if err != nil {
		return err
	}
	defer closeSink()
	report := func(snap *dtm.MetricsSnapshot) error {
		if !p.metrics {
			return nil
		}
		return snap.WriteJSON(os.Stdout)
	}

	plan, err := faultPlan(p)
	if err != nil {
		return err
	}
	if d, ok := dtm.EngineByID(p.sched); ok && d.Caps.Distributed {
		res, err := dtm.RunDistributed(in, dtm.DistributedOptions{
			Options: dtm.RunOptions{Obs: m},
			Batch:   batch.Tour{}, Seed: p.seed, Parallel: true,
			Faults: dtm.FaultOptions{Plan: plan},
		})
		if err != nil {
			return err
		}
		t.AddRow(res.Scheduler, fmt.Sprint(res.Makespan), fmt.Sprint(res.MaxLat),
			fmt.Sprintf("%.1f", res.MeanLat()), fmt.Sprint(res.TotalComm),
			fmt.Sprintf("%.2f", res.MaxRatio), fmt.Sprintf("%.2f", res.MeanRatio()))
		if err := emit(); err != nil {
			return err
		}
		fmt.Printf("protocol: %d messages, %d message-distance, %d cover layers, %d sub-layers, audit %+v\n",
			res.Messages, res.MsgDistance, res.CoverLayers, res.SubLayers, res.Audit)
		if plan.Enabled() {
			fmt.Printf("faults: completion %.3f, %d abandoned\n", res.CompletionRate(), len(res.Abandoned))
			for _, a := range res.Abandoned {
				fmt.Printf("  abandoned tx %d: %s\n", a.Tx, a.Reason)
			}
		}
		return report(res.Metrics)
	}
	if plan.Enabled() {
		return fmt.Errorf("fault injection (-drop/-dup/-jitter/-crash) requires -sched distributed")
	}

	s, err := buildScheduler(p)
	if err != nil {
		return err
	}
	runOpts := dtm.RunOptions{Obs: m}
	if p.capacity > 0 {
		runOpts.Sim = dtm.SimOptions{LinkCapacity: p.capacity, ElasticExec: true}
	}
	rr, err := dtm.Run(in, s, runOpts)
	if err != nil {
		return err
	}
	t.AddRow(rr.Scheduler, fmt.Sprint(rr.Makespan), fmt.Sprint(rr.MaxLat),
		fmt.Sprintf("%.1f", rr.MeanLat()), fmt.Sprint(rr.TotalComm),
		fmt.Sprintf("%.2f", rr.MaxRatio), fmt.Sprintf("%.2f", rr.MeanRatio()))
	if err := emit(); err != nil {
		return err
	}
	if p.traceOut != "" {
		if p.capacity > 0 {
			return fmt.Errorf("-trace is only supported with unbounded links (traces replay in the paper's model)")
		}
		f, err := os.Create(p.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tr := dtm.CaptureTrace(in, rr, 1)
		if err := tr.Validate(); err != nil {
			return err
		}
		if err := tr.Write(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (re-validated)\n", p.traceOut)
	}
	return report(rr.Metrics)
}

// progressSource wraps a stream source and reports pull progress on
// stderr every `every` arrivals, so multi-minute soak runs stay visibly
// alive without perturbing the deterministic arrival sequence.
type progressSource struct {
	src   dtm.Source
	every int64
	n     int64
}

func (ps *progressSource) Next() (dtm.SourceArrival, bool) {
	a, ok := ps.src.Next()
	if ok {
		ps.n++
		if ps.n%ps.every == 0 {
			fmt.Fprintf(os.Stderr, "dtmsim: %d arrivals pulled (t=%d)\n", ps.n, a.At)
		}
	}
	return a, ok
}

// assertFlat is the soak acceptance check: on a stable open-system run
// both the in-flight queue and the engine's live window plateau, so the
// second-half peak must stay within a doubling (plus slack for a short
// warmup) of the first-half peak. A leak or an over-critical arrival
// rate grows them linearly and trips this.
func assertFlat(res *dtm.StreamResult) error {
	check := func(name string, first, second int64) error {
		if second > 2*first+64 {
			return fmt.Errorf("assertflat: %s grew from %d (first half) to %d (second half) — queue diverging or window leaking", name, first, second)
		}
		return nil
	}
	if err := check("queue peak", res.QueuePeakFirstHalf, res.QueuePeakSecondHalf); err != nil {
		return err
	}
	return check("live-window peak", res.WindowPeakFirstHalf, res.WindowPeakSecondHalf)
}

// runStream drives the open-system mode: a generative arrival source
// pulled lazily by the bounded-memory streaming driver.
func runStream(p params, g *dtm.Graph) error {
	if d, ok := dtm.EngineByID(p.sched); ok && d.Caps.Distributed {
		return fmt.Errorf("-stream supports the centralized schedulers only")
	}
	if p.capacity > 0 || p.traceOut != "" {
		return fmt.Errorf("-capacity and -trace are not supported with -stream")
	}
	numObjects := p.objects
	if numObjects == 0 {
		numObjects = g.N()
	}
	cfg := dtm.StreamConfig{K: p.k, NumObjects: numObjects, Rate: p.rate, Burst: p.burst, Seed: p.seed}
	var src dtm.Source
	var err error
	switch p.stream {
	case "poisson":
		src, err = dtm.NewPoissonSource(g, cfg)
	case "bursty":
		src, err = dtm.NewBurstySource(g, cfg)
	default:
		err = fmt.Errorf("unknown stream source %q (want poisson or bursty)", p.stream)
	}
	if err != nil {
		return err
	}
	if p.progress > 0 {
		src = &progressSource{src: src, every: p.progress}
	}
	s, err := buildScheduler(p)
	if err != nil {
		return err
	}
	m, closeSink, err := openMetrics(p)
	if err != nil {
		return err
	}
	defer closeSink()

	res, err := dtm.RunStream(g, dtm.UniformObjects(g, numObjects, p.seed), src, s,
		dtm.StreamOptions{Obs: m, MaxArrivals: p.arrivals})
	if err != nil {
		return err
	}

	t := stats.NewTable(
		fmt.Sprintf("dtmsim -stream %s: %s, λ=%g, %d arrivals", p.stream, g, p.rate, res.Arrivals),
		"scheduler", "completed", "makespan", "p50 sojourn", "p95", "p99", "max",
		"queue peak 1st/2nd half", "window peak 1st/2nd half", "retired")
	t.AddRow(res.Scheduler, fmt.Sprint(res.Completed), fmt.Sprint(res.Makespan),
		fmt.Sprint(res.SojournP50), fmt.Sprint(res.SojournP95), fmt.Sprint(res.SojournP99),
		fmt.Sprint(res.MaxSojourn),
		fmt.Sprintf("%d/%d", res.QueuePeakFirstHalf, res.QueuePeakSecondHalf),
		fmt.Sprintf("%d/%d", res.WindowPeakFirstHalf, res.WindowPeakSecondHalf),
		fmt.Sprint(res.Retired))
	if p.csv {
		if err := t.RenderCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if p.metrics {
		if err := res.Metrics.WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if p.assertflat {
		if err := assertFlat(res); err != nil {
			return err
		}
		fmt.Printf("assertflat: ok — queue peak %d/%d, window peak %d/%d (1st/2nd half)\n",
			res.QueuePeakFirstHalf, res.QueuePeakSecondHalf,
			res.WindowPeakFirstHalf, res.WindowPeakSecondHalf)
	}
	return nil
}
