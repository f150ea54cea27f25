package bucket

import (
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// leakProbe wraps a Bucket and, after every arrival and activation,
// compares the scheduler's bookkeeping against the simulation's ground
// truth: a transaction is pending iff it has arrived and has no decision
// yet. The per-level sessions must hold exactly the level members — a popped probe or a drained activation that leaves
// a *core.Transaction pinned inside session (or scratch) state is the
// leak this guards against; the old per-arrival candidate buffer retained
// exactly such pointers after OnArrive.
type leakProbe struct {
	*Bucket
	t          *testing.T
	env        *sched.Env
	arrived    []core.TxID
	checks     int
	maxPending int
}

func (p *leakProbe) Start(env *sched.Env) error {
	p.env = env
	return p.Bucket.Start(env)
}

func (p *leakProbe) OnArrive(txns []*core.Transaction) error {
	if err := p.Bucket.OnArrive(txns); err != nil {
		return err
	}
	for _, tx := range txns {
		p.arrived = append(p.arrived, tx.ID)
	}
	p.check()
	return nil
}

func (p *leakProbe) OnWake() error {
	if err := p.Bucket.OnWake(); err != nil {
		return err
	}
	p.check()
	return nil
}

func (p *leakProbe) check() {
	truth := 0
	for _, id := range p.arrived {
		if _, ok := p.env.Sim.Scheduled(id); !ok {
			truth++
		}
	}
	pending, sessionHeld := p.Bucket.LiveStats()
	if pending != truth {
		p.t.Fatalf("t=%d: buckets hold %d transactions, truth is %d (leak of %d)",
			p.env.Sim.Now(), pending, truth, pending-truth)
	}
	// Sessions mirror the level buckets exactly: every failed probe is
	// popped, every activation drains its session.
	if sessionHeld != pending {
		p.t.Fatalf("t=%d: sessions hold %d transaction pointers for %d pending (retention of %d)",
			p.env.Sim.Now(), sessionHeld, pending, sessionHeld-pending)
	}
	p.checks++
	if pending > p.maxPending {
		p.maxPending = pending
	}
}

// TestBucketLeakGuard drives the bucket scheduler over the Tour and
// Coloring batch schedulers through a Zipf workload and asserts after
// every OnArrive and OnWake that no decided transaction survives in the
// level buckets or the per-level session state. This is
// the bucket counterpart of greedy's TestPruneLeakGuardLongRun, sized down
// because every probe pays a batch-schedule evaluation.
func TestBucketLeakGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("leak guard")
	}
	const n = 48
	g, err := graph.Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 2 * n, Rounds: 8,
		Arrival: workload.ArrivalPoisson, Period: 4,
		Pop: workload.PopZipf, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
		probe := &leakProbe{Bucket: New(Options{Batch: bs}), t: t}
		rr, err := sched.Run(in, probe, sched.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("%s: run failed: %v", bs.Name(), err)
		}
		if rr.Failed {
			t.Fatalf("%s: run marked failed: %v", bs.Name(), rr.Err)
		}
		if probe.checks == 0 {
			t.Fatalf("%s: leak probe never ran", bs.Name())
		}
		t.Logf("%s: %d arrivals, %d checks, peak pending %d",
			bs.Name(), len(in.Txns), probe.checks, probe.maxPending)
	}
}
