package sched_test

// Differential pin: the finite-instance driver (Run on the shared drive
// core, over an always-exhausted arrival stream) must reproduce the
// frozen reference loop byte-for-byte across every central registry
// engine, the oracle and feature-knob variants, four topologies and three
// seeds — decision logs, results, merged metric snapshots and emitted
// event streams.

import (
	"bytes"
	"fmt"
	"testing"

	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"

	batchpkg "dtm/internal/batch"
)

// pinRun pins a finite run through pinClosedLoop, adapting run to the
// closed-loop signature: the graph and config are ignored, and the
// instance, which the run does not change, is pinned as given.
func pinRun(t *testing.T, run func(*core.Instance, sched.Scheduler, sched.Options) (*sched.RunResult, error),
	in *core.Instance, s sched.Scheduler, opts sched.Options) clPinned {
	t.Helper()
	adapted := func(_ *graph.Graph, _ sched.ClosedLoopConfig, s sched.Scheduler, o sched.Options) (*sched.RunResult, *core.Instance, error) {
		o.Sim = opts.Sim
		rr, err := run(in, s, o)
		return rr, in, err
	}
	return pinClosedLoop(t, adapted, in.G, sched.ClosedLoopConfig{}, s, opts.SnapshotEvery)
}

func TestRunMatchesRef(t *testing.T) {
	type runCase struct {
		name string
		mk   func() sched.Scheduler
		sim  core.SimOptions
	}
	var cases []runCase
	for _, d := range engine.All() {
		if d.Caps.Distributed {
			continue
		}
		d := d
		cases = append(cases, runCase{d.ID, func() sched.Scheduler { return d.New(sched.EngineOptions{}) }, core.SimOptions{}})
	}
	rebuild := sched.EngineOptions{RebuildOracle: true}
	cases = append(cases,
		runCase{"greedy-rebuild", func() sched.Scheduler {
			return engine.NewGreedy(greedy.Options{EngineOptions: rebuild})
		}, core.SimOptions{}},
		runCase{"bucket-tour-rebuild", func() sched.Scheduler {
			return engine.NewBucket(bucket.Options{Batch: batchpkg.Tour{}, EngineOptions: rebuild})
		}, core.SimOptions{}},
		runCase{"greedy-pad2", func() sched.Scheduler {
			return engine.NewGreedy(greedy.Options{Pad: 2})
		}, core.SimOptions{}},
		runCase{"greedy-elastic-slow", func() sched.Scheduler {
			return engine.NewGreedy(greedy.Options{})
		}, core.SimOptions{ElasticExec: true, SlowFactor: 2}},
	)
	for topoName, g := range diffTopologies(t) {
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", topoName, c.name, seed), func(t *testing.T) {
					in, err := workload.Generate(g, workload.Config{
						K: 2, NumObjects: 6, Rounds: 3,
						Arrival: workload.ArrivalPoisson, Period: 3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					compare := func(field string, want, have []byte) {
						if !bytes.Equal(want, have) {
							t.Fatalf("%s differ\nref:     %s\nunified: %s", field, want, have)
						}
					}
					// Snapshots disabled: every instrument is deterministic
					// and must match bytewise, metrics included.
					opts := sched.Options{Sim: c.sim, SnapshotEvery: -1}
					ref := pinRun(t, sched.RunRef, in, c.mk(), opts)
					got := pinRun(t, sched.Run, in, c.mk(), opts)
					compare("decisions", ref.decisions, got.decisions)
					compare("results", ref.result, got.result)
					compare("metrics", ref.metrics, got.metrics)
					compare("events", ref.events, got.events)
					// Snapshots enabled: ratios and results must still
					// match (metrics carry the wall-clock snapshot_ns
					// histogram, so they are excluded here).
					for _, every := range []int{1, 2} {
						opts.SnapshotEvery = every
						ref := pinRun(t, sched.RunRef, in, c.mk(), opts)
						got := pinRun(t, sched.Run, in, c.mk(), opts)
						compare(fmt.Sprintf("every=%d ratios", every), ref.ratios, got.ratios)
						compare(fmt.Sprintf("every=%d decisions", every), ref.decisions, got.decisions)
						compare(fmt.Sprintf("every=%d results", every), ref.result, got.result)
					}
				})
			}
		}
	}
}
