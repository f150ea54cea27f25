package window

import (
	"math/rand"
	"testing"

	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// scheduleAllocsMax pins the steady-state allocations of one small batch
// cycle (AddTransaction, OnArrive, then AdvanceTo until the batch
// commits). The Sim's part of the cycle allocates nothing, and schedule
// reuses its candidate, order and scratch buffers across batches, so a
// batch allocates nothing either. That holds only while its two sorts
// (IDs, then (priority, ID) per round) stay generic: a reflection sort
// such as sort.Slice boxes the slice and builds a swapper, two
// allocations per call.
const scheduleAllocsMax = 0

// TestScheduleAllocs drives three-transaction batches on grid(8,8)
// against eight objects until the conflict index, the Sim's queues and
// the scratch arenas reach steady state, then counts allocations per
// batch cycle.
func TestScheduleAllocs(t *testing.T) {
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
	w := New(Options{})
	if err := w.Start(env); err != nil {
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
		if err := w.OnArrive(batch); err != nil {
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
	if allocs > scheduleAllocsMax {
		t.Fatalf("%.2f allocs per batch cycle, want <= %d", allocs, scheduleAllocsMax)
	}
}
