package sched_test

// Differential pin: the unified closed-loop driver (RunClosedLoop on the
// shared drive core) must reproduce the frozen pre-unification reference
// byte-for-byte across the engine_diff config grid — decision logs,
// results, merged metric snapshots, emitted event streams, and the
// generated instance itself (the arrival process feeds back through
// commit times, so any drift compounds into a different workload).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"

	batchpkg "dtm/internal/batch"
)

func diffTopologies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*graph.Graph{
		"line":    mk(graph.Line(12)),
		"clique":  mk(graph.Clique(12)),
		"grid":    mk(graph.Grid(4, 3)),
		"cluster": mk(graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})),
	}
}

func clConfig(g *graph.Graph, seed int64) sched.ClosedLoopConfig {
	numObjects := 8
	objects := make([]*core.Object, numObjects)
	for i := range objects {
		objects[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID((i*5 + int(seed)) % g.N())}
	}
	return sched.ClosedLoopConfig{
		Objects: objects,
		Rounds:  3,
		Gen: func(node graph.NodeID, round int) []core.ObjID {
			a := core.ObjID((int(node) + round + int(seed)) % numObjects)
			b := core.ObjID((int(node)*5 + round*7 + int(seed)*3 + 1) % numObjects)
			if a == b {
				b = (b + 1) % core.ObjID(numObjects)
			}
			if a > b {
				a, b = b, a
			}
			return []core.ObjID{a, b}
		},
	}
}

type clPinned struct {
	decisions []byte
	result    []byte
	metrics   []byte
	events    []byte
	instance  []byte
	ratios    []byte
}

func pinClosedLoop(t *testing.T, run func(*graph.Graph, sched.ClosedLoopConfig, sched.Scheduler, sched.Options) (*sched.RunResult, *core.Instance, error),
	g *graph.Graph, cfg sched.ClosedLoopConfig, s sched.Scheduler, snapEvery int) clPinned {
	t.Helper()
	m := obs.New()
	sink := &obs.SliceSink{}
	m.SetSink(sink)
	rr, in, err := run(g, cfg, s, sched.Options{SnapshotEvery: snapEvery, Obs: m})
	if err != nil {
		t.Fatalf("closed loop failed: %v", err)
	}
	var p clPinned
	mustJSON := func(dst *[]byte, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		*dst = b
	}
	mustJSON(&p.decisions, rr.Decisions)
	mustJSON(&p.result, rr.Result)
	mustJSON(&p.events, sink.Events())
	mustJSON(&p.instance, in.Txns)
	mustJSON(&p.ratios, rr.Ratios)
	var buf bytes.Buffer
	if err := rr.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	p.metrics = buf.Bytes()
	return p
}

func TestClosedLoopMatchesRef(t *testing.T) {
	scheds := map[string]func() sched.Scheduler{
		"greedy":          func() sched.Scheduler { return engine.NewGreedy(greedy.Options{}) },
		"bucket-tour":     func() sched.Scheduler { return engine.NewBucket(bucket.Options{Batch: batchpkg.Tour{}}) },
		"bucket-coloring": func() sched.Scheduler { return engine.NewBucket(bucket.Options{Batch: batchpkg.Coloring{}}) },
		"coordinator":     func() sched.Scheduler { return engine.NewCoordinator(0, greedy.Options{}) },
	}
	for topoName, g := range diffTopologies(t) {
		for schedName, mk := range scheds {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", topoName, schedName, seed)
				t.Run(name, func(t *testing.T) {
					cfg := clConfig(g, seed)
					// Snapshots disabled: every instrument is deterministic
					// and must match bytewise, metrics included.
					ref := pinClosedLoop(t, sched.RunClosedLoopRef, g, cfg, mk(), -1)
					got := pinClosedLoop(t, sched.RunClosedLoop, g, cfg, mk(), -1)
					compare := func(field string, want, have []byte) {
						if !bytes.Equal(want, have) {
							t.Fatalf("%s differ\nref:     %s\nunified: %s", field, want, have)
						}
					}
					compare("decisions", ref.decisions, got.decisions)
					compare("results", ref.result, got.result)
					compare("metrics", ref.metrics, got.metrics)
					compare("events", ref.events, got.events)
					compare("instances", ref.instance, got.instance)
					// Snapshots enabled: ratios and results must still
					// match (metrics carry the wall-clock snapshot_ns
					// histogram, so they are excluded here).
					refSnap := pinClosedLoop(t, sched.RunClosedLoopRef, g, cfg, mk(), 1)
					gotSnap := pinClosedLoop(t, sched.RunClosedLoop, g, cfg, mk(), 1)
					compare("snapshot ratios", refSnap.ratios, gotSnap.ratios)
					compare("snapshot decisions", refSnap.decisions, gotSnap.decisions)
					compare("snapshot results", refSnap.result, gotSnap.result)
				})
			}
		}
	}
}
