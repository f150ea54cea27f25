package greedy

import (
	"math/rand"
	"testing"

	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// scheduleBatchAllocsMax pins the steady-state allocations of one small
// batch cycle (AddTransaction, ScheduleBatch, then AdvanceTo until the
// batch commits) under the sequential runner. The Sim's part of the cycle
// allocates nothing, so all of it is ScheduleBatch: the gather closure
// handed to par.Runner.Map and the worker-arena slice from GetScratchN.
// The sequential path this engine had before its gather/merge fold also
// allocated two per batch (sort.Slice's boxed slice and swapper). The
// gather output and the arenas themselves are reused across batches, so
// the count does not grow with the batch.
const scheduleBatchAllocsMax = 2

// TestScheduleBatchAllocs drives three-transaction batches on grid(8,8)
// against eight objects until the conflict index, the Sim's queues and
// the scratch arenas reach steady state, then counts allocations per
// batch cycle.
func TestScheduleBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under -race")
	}
	g, err := graph.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nObjs, batchSize, runs = 8, 3, 400
	in := &core.Instance{G: g}
	for i := 0; i < nObjs; i++ {
		in.Objects = append(in.Objects, &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(i * 7)})
	}
	// One pool of transactions for the warm-up, AllocsPerRun's own warm-up
	// call and the measured runs; IDs are dense in pool order.
	rng := rand.New(rand.NewSource(1))
	pool := make([]*core.Transaction, (2*runs+2)*batchSize)
	for i := range pool {
		a := core.ObjID(rng.Intn(nObjs))
		b := core.ObjID(rng.Intn(nObjs - 1))
		if b >= a {
			b++
		} else {
			a, b = b, a
		}
		pool[i] = &core.Transaction{ID: core.TxID(i), Node: graph.NodeID(rng.Intn(g.N())), Objects: []core.ObjID{a, b}}
	}
	sim, err := core.NewSim(in, core.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := &sched.Env{Sim: sim, G: g, Scratch: depgraph.GetScratch()}
	defer env.Scratch.Release()
	gr := New(Options{})
	if err := gr.Start(env); err != nil {
		t.Fatal(err)
	}
	next := 0
	cycle := func() {
		batch := pool[next : next+batchSize]
		next += batchSize
		for _, tx := range batch {
			tx.Arrival = sim.Now()
			if err := sim.AddTransaction(tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := gr.ScheduleBatch(batch); err != nil {
			t.Fatal(err)
		}
		last := sim.Now() + 1
		for _, tx := range batch {
			if exec, ok := sim.Scheduled(tx.ID); ok && exec >= last {
				last = exec + 1
			}
		}
		if err := sim.AdvanceTo(last); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < runs; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(runs, cycle)
	t.Logf("%.2f allocs per batch cycle", allocs)
	if allocs > scheduleBatchAllocsMax {
		t.Fatalf("%.2f allocs per batch cycle, want <= %d", allocs, scheduleBatchAllocsMax)
	}
}
