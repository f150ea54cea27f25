package dtm

// The benchmark harness regenerates every table and figure of the
// constructed evaluation (DESIGN.md §5): one benchmark per experiment,
// printing the experiment's table on the first iteration so that
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt
//
// reproduces the whole evaluation, plus the Table 6 CPU microbenchmarks of
// the scheduling computations themselves (Sections III-B and IV-D analyze
// their sequential run-time complexity).
//
// Every experiment routes its trials through the internal/runner sweep
// subsystem; the Config zero value (Workers: 0) runs them on a
// GOMAXPROCS-wide worker pool, and the tables printed here are
// byte-identical to a sequential (Workers: 1) run by the runner's
// determinism contract. BenchmarkSweepWorkers measures the pool's effect
// directly.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/experiments"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(experiments.Config{Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.StopTimer()
			fmt.Fprintf(os.Stdout, "\n[%s] %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
			if err := tb.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkTable1Summary(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkFigure1CliqueK(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkFigure2CliqueN(b *testing.B)       { benchExperiment(b, "F2") }
func BenchmarkFigure3Hypercube(b *testing.B)     { benchExperiment(b, "F3") }
func BenchmarkFigure4ButterflyGrid(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5Line(b *testing.B)          { benchExperiment(b, "F5") }
func BenchmarkFigure6Cluster(b *testing.B)       { benchExperiment(b, "F6") }
func BenchmarkFigure7Star(b *testing.B)          { benchExperiment(b, "F7") }
func BenchmarkTable2GreedyBounds(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkTable3BucketLemmas(b *testing.B)   { benchExperiment(b, "T3") }
func BenchmarkFigure8Crossover(b *testing.B)     { benchExperiment(b, "F8") }
func BenchmarkTable4Distributed(b *testing.B)    { benchExperiment(b, "T4") }
func BenchmarkTable5Coordinator(b *testing.B)    { benchExperiment(b, "T5") }
func BenchmarkFigure9HalfSpeed(b *testing.B)     { benchExperiment(b, "F9") }
func BenchmarkFigure10Load(b *testing.B)         { benchExperiment(b, "F10") }
func BenchmarkTable7BucketAblation(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkTable8BatchQuality(b *testing.B)   { benchExperiment(b, "T8") }
func BenchmarkTable9ClosedLoop(b *testing.B)     { benchExperiment(b, "T9") }
func BenchmarkFigure11TimeVsComm(b *testing.B)   { benchExperiment(b, "F11") }
func BenchmarkFigure12Congestion(b *testing.B)   { benchExperiment(b, "F12") }
func BenchmarkTable10HubPlacement(b *testing.B)  { benchExperiment(b, "T10") }
func BenchmarkFigure13Padding(b *testing.B)      { benchExperiment(b, "F13") }
func BenchmarkTable11Faults(b *testing.B)        { benchExperiment(b, "T11") }
func BenchmarkTable12Scale(b *testing.B)         { benchExperiment(b, "T12") }
func BenchmarkTable14Stream(b *testing.B)        { benchExperiment(b, "T14") }
func BenchmarkTable15Window(b *testing.B)        { benchExperiment(b, "T15") }

// BenchmarkSweepWorkers times one trial-heavy experiment (T1) at several
// worker-pool sizes; the rendered tables are byte-identical across them.
func BenchmarkSweepWorkers(b *testing.B) {
	e, ok := experiments.ByID("T1")
	if !ok {
		b.Fatal("missing T1")
	}
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Config{Quick: true, Seed: 42, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 6: CPU cost of the scheduling computations themselves ---

// BenchmarkGreedyScheduleCPU measures one full online greedy run (all
// coloring work) per instance size, for the incremental engine and its
// from-scratch rebuild reference (engine_ref_test.go); -benchmem shows the
// ns and alloc gap the conflict index buys. Section III-B claims
// O(n' + m' log n') per step.
func BenchmarkGreedyScheduleCPU(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		in := cliqueInstance(b, n)
		for _, eng := range []struct {
			name string
			mk   func() sched.Scheduler
		}{
			{"incremental", func() sched.Scheduler { return engine.NewGreedy(greedy.Options{}) }},
			{"rebuild", func() sched.Scheduler { return newGreedyRef(greedy.Options{}) }},
		} {
			b.Run(fmt.Sprintf("clique-n%d/%s", n, eng.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sched.Run(in, eng.mk(), sched.Options{SnapshotEvery: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBucketScheduleCPU measures the bucket conversion (level probes
// plus activations) per instance size, for the session-driven engine and
// its from-scratch rebuild reference; Section IV-D claims polynomial time.
func BenchmarkBucketScheduleCPU(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g, err := graph.Line(n)
		if err != nil {
			b.Fatal(err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: n / 2, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: core.Time(n), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			mk   func() sched.Scheduler
		}{
			{"incremental", func() sched.Scheduler { return engine.NewBucket(bucket.Options{Batch: batch.Tour{}}) }},
			{"rebuild", func() sched.Scheduler { return newBucketRef(bucket.Options{Batch: batch.Tour{}}) }},
		} {
			b.Run(fmt.Sprintf("line-n%d/%s", n, eng.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sched.Run(in, eng.mk(), sched.Options{SnapshotEvery: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchSchedulersCPU measures the two offline algorithms on one
// batch problem.
func BenchmarkBatchSchedulersCPU(b *testing.B) {
	g, err := graph.Line(128)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 64, Rounds: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	avail := make(map[core.ObjID]batch.Avail)
	for _, o := range in.Objects {
		avail[o.ID] = batch.Avail{Node: o.Origin}
	}
	p := &batch.Problem{G: g, Txns: in.Txns, Avail: avail}
	for _, s := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedProtocolCPU measures a full Algorithm 3 run,
// sequential vs goroutine-per-node engines.
func BenchmarkDistributedProtocolCPU(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 12, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []bool{false, true} {
		name := "sequential"
		if par {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunDistributed(in, DistributedOptions{
					Options: RunOptions{SnapshotEvery: -1},
					Batch:   batch.Tour{}, Seed: 7, Parallel: par,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
