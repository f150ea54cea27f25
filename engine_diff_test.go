package dtm

// Differential tests of the two central engines against their from-scratch
// references in engine_ref_test.go: the incremental greedy engine (the
// persistent conflict index) and the session-driven bucket engine must
// produce byte-identical decision logs for every scheduler, topology and
// seed. The greedy color depends only on the set of forbidden intervals —
// both sides feed the same interval sets into the shared coloring sweeps —
// and the bucket's session problems differ from the one-shot ones only by
// availability entries no batch scheduler reads, so any divergence is a
// bug in the index or session maintenance.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dtm/internal/batch"
)

func diffTopologies(t *testing.T) map[string]*Graph {
	t.Helper()
	line, err := Line(12)
	if err != nil {
		t.Fatal(err)
	}
	clique, err := Clique(12)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := Cluster(ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"line": line, "clique": clique, "grid": grid, "cluster": cluster}
}

// requireSameSchedule runs inc and ref on the instance and fails unless
// they agree on failure, on the decision log byte for byte, and on the
// makespan.
func requireSameSchedule(t *testing.T, in *Instance, inc, ref Scheduler, opts RunOptions) {
	t.Helper()
	ri, incErr := Run(in, inc, opts)
	ro, refErr := Run(in, ref, opts)
	if (incErr == nil) != (refErr == nil) {
		t.Fatalf("engines disagree on failure: incremental err=%v, rebuild err=%v", incErr, refErr)
	}
	if incErr != nil {
		return // both failed at the driver level
	}
	ji, err := json.Marshal(ri.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	jo, err := json.Marshal(ro.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ji, jo) {
		t.Fatalf("decision logs differ\nincremental: %s\nrebuild:     %s", ji, jo)
	}
	if ri.Makespan != ro.Makespan {
		t.Fatalf("makespan differs: incremental %d, rebuild %d", ri.Makespan, ro.Makespan)
	}
}

func TestIncrementalMatchesRebuildOracle(t *testing.T) {
	type diffCase struct {
		name     string
		inc, ref func() Scheduler // fresh per run: schedulers are stateful
		opts     RunOptions
	}
	registry := func(id string) func() Scheduler {
		d, ok := EngineByID(id)
		if !ok {
			t.Fatalf("engine %q not in the registry", id)
		}
		return func() Scheduler { return d.New(EngineOptions{}) }
	}
	greedyRef := func(opts GreedyOptions) func() Scheduler {
		return func() Scheduler { return newGreedyRef(opts) }
	}
	bucketRef := func(opts func() BucketOptions) func() Scheduler {
		return func() Scheduler { return newBucketRef(opts()) }
	}
	tour := func() BucketOptions { return BucketOptions{Batch: batch.Tour{}} }
	hub := NodeID(0)
	elastic := RunOptions{Sim: SimOptions{ElasticExec: true, SlowFactor: 2}}
	cases := []diffCase{
		// The central registry engines.
		{"greedy", registry("greedy"), greedyRef(GreedyOptions{}), RunOptions{}},
		{"greedy-uniform", registry("greedy-uniform"), greedyRef(GreedyOptions{Uniform: true}), RunOptions{}},
		// The coordinator's inner scheduler: a Greedy with the Section
		// III-E hub floor. The coordinator's report delay in front of it is
		// the same on both engines, so the hub branch is what differs.
		{"coordinator", func() Scheduler { return NewGreedy(GreedyOptions{Hub: &hub}) },
			greedyRef(GreedyOptions{Hub: &hub}), RunOptions{}},
		{"bucket-tour", registry("bucket-tour"), bucketRef(tour), RunOptions{}},
		{"bucket-coloring", registry("bucket-coloring"),
			bucketRef(func() BucketOptions { return BucketOptions{Batch: batch.Coloring{}} }), RunOptions{}},
		{"bucket-list", registry("bucket-list"),
			bucketRef(func() BucketOptions { return BucketOptions{Batch: batch.List{}} }), RunOptions{}},
		// Feature knobs the registry defaults cannot spell: padding,
		// elastic half-speed execution (commits run past their decided
		// times, exercising the index's straggler re-arm), slow buckets and
		// the randomized batch scheduler.
		{"greedy-pad2", func() Scheduler { return NewGreedy(GreedyOptions{Pad: 2}) },
			greedyRef(GreedyOptions{Pad: 2}), RunOptions{}},
		{"greedy-elastic-slow", registry("greedy"), greedyRef(GreedyOptions{}), elastic},
		{"bucket-random-suffix", func() Scheduler {
			return NewBucket(BucketOptions{Batch: WithSuffixProperty(RandomizedBatch(42, 3))})
		}, bucketRef(func() BucketOptions {
			return BucketOptions{Batch: WithSuffixProperty(RandomizedBatch(42, 3))}
		}), RunOptions{}},
		{"bucket-tour-slow", func() Scheduler { return NewBucket(BucketOptions{Batch: TourBatch(), Slow: 2}) },
			bucketRef(func() BucketOptions { return BucketOptions{Batch: batch.Tour{}, Slow: 2} }), elastic},
		// The facade constructors with keyed option literals, next to the
		// registry's Desc.New above. (These cases once pinned a deprecated
		// engine-selection field; the names stay.)
		{"greedy-deprecated-field", func() Scheduler { return NewGreedy(GreedyOptions{}) },
			greedyRef(GreedyOptions{}), RunOptions{}},
		{"bucket-tour-deprecated-field", func() Scheduler { return NewBucket(BucketOptions{Batch: TourBatch()}) },
			bucketRef(tour), RunOptions{}},
	}
	for topoName, g := range diffTopologies(t) {
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", topoName, c.name, seed), func(t *testing.T) {
					in, err := Generate(g, WorkloadConfig{
						K: 2, NumObjects: 6, Rounds: 3,
						Arrival: ArrivalPoisson, Period: 3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					requireSameSchedule(t, in, c.inc(), c.ref(), c.opts)
				})
			}
		}
	}
}

// TestEngineAuditParity pins the greedy Theorem 1/2 audit — including the
// Δ/Γ bound terms, which the incremental engine accumulates without ever
// materializing the conflict graph — to the reference's accounting on the
// explicit graph.
func TestEngineAuditParity(t *testing.T) {
	g, err := Clique(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, uniform := range []bool{false, true} {
		in, err := Generate(g, WorkloadConfig{
			K: 3, NumObjects: 5, Rounds: 4,
			Arrival: ArrivalPeriodic, Period: 2, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		inc := NewGreedy(GreedyOptions{Uniform: uniform})
		ref := newGreedyRef(GreedyOptions{Uniform: uniform})
		if _, err := Run(in, inc, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(in, ref, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if inc.Audit() != ref.Audit() {
			t.Errorf("uniform=%v: audit differs\nincremental: %+v\nrebuild:     %+v",
				uniform, inc.Audit(), ref.Audit())
		}
	}
}

// cliqueInstance is the scaling workload shared by the clique identity
// test and BenchmarkGreedyScheduleCPU: three rounds of n periodic
// arrivals, each transaction touching K=3 of n objects.
func cliqueInstance(tb testing.TB, n int) *Instance {
	tb.Helper()
	g, err := Clique(n)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 3, NumObjects: n, Rounds: 3,
		Arrival: ArrivalPeriodic, Period: 2, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestCliqueIdentityAtScale checks the greedy engine stays identical to
// its reference as the live set grows to n=1024 on a clique, where every
// transaction pair is one hop apart and conflicts are dense.
func TestCliqueIdentityAtScale(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n > 256 && testing.Short() {
				t.Skip("n=1024 rebuild run")
			}
			requireSameSchedule(t, cliqueInstance(t, n), NewGreedy(GreedyOptions{}),
				newGreedyRef(GreedyOptions{}), RunOptions{SnapshotEvery: -1})
		})
	}
}
