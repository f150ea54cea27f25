package sched

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/workload"
)

// idleScheduler accepts arrivals and never decides them.
type idleScheduler struct{}

func (idleScheduler) Name() string                       { return "idle" }
func (idleScheduler) Start(*Env) error                   { return nil }
func (idleScheduler) OnArrive([]*core.Transaction) error { return nil }
func (idleScheduler) NextWake() (core.Time, bool)        { return 0, false }
func (idleScheduler) OnWake() error                      { return nil }

func liveGauge(t *testing.T, m *obs.Snapshot) obs.GaugeValue {
	t.Helper()
	g, ok := m.Gauges[obs.NameSchedLiveTxns]
	if !ok {
		t.Fatalf("%s gauge missing", obs.NameSchedLiveTxns)
	}
	return g
}

// TestLiveTxnsGaugeEndsAtFinalCount pins that sched.live_txns reads the
// live-set size when the run ends, not at its last snapshot: 0 after a
// clean Run or RunClosedLoop, and every arrived, unexecuted transaction
// after a failed Run or RunStream.
func TestLiveTxnsGaugeEndsAtFinalCount(t *testing.T) {
	in := testInstance(t, 10)
	rr, err := Run(in, &serialScheduler{}, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if g := liveGauge(t, rr.Metrics); g.Value != 0 || g.Max < 1 {
		t.Errorf("Run: %s = %+v, want value 0 and max >= 1", obs.NameSchedLiveTxns, g)
	}

	g, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	objects := []*core.Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 5}}
	gen := func(node graph.NodeID, round int) []core.ObjID {
		return []core.ObjID{core.ObjID((int(node) + round) % 2)}
	}
	rr, _, err = RunClosedLoop(g, ClosedLoopConfig{Objects: objects, Rounds: 3, Gen: gen},
		&serialScheduler{gap: 6}, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if g := liveGauge(t, rr.Metrics); g.Value != 0 || g.Max < 1 {
		t.Errorf("RunClosedLoop: %s = %+v, want value 0 and max >= 1", obs.NameSchedLiveTxns, g)
	}

	rr, err = Run(in, idleScheduler{}, Options{Obs: obs.New()})
	if err == nil {
		t.Fatal("idle scheduler: want a never-scheduled error")
	}
	if g := liveGauge(t, rr.Metrics); g.Value != int64(len(in.Txns)) {
		t.Errorf("failed Run: %s = %d, want %d", obs.NameSchedLiveTxns, g.Value, len(in.Txns))
	}

	res, err := RunStream(in.G, in.Objects, workload.NewInstanceSource(in), idleScheduler{}, StreamOptions{})
	if err == nil {
		t.Fatal("idle scheduler on a stream: want a never-scheduled error")
	}
	if g := liveGauge(t, res.Metrics); g.Value != int64(len(in.Txns)) {
		t.Errorf("failed RunStream: %s = %d, want %d", obs.NameSchedLiveTxns, g.Value, len(in.Txns))
	}
}
