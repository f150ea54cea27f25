package trace

import (
	"bytes"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func captureRun(t *testing.T) (*core.Instance, *Run) {
	t.Helper()
	g, err := graph.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 5, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.Run(in, engine.NewGreedy(greedy.Options{}), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return in, Capture(in, rr, 1)
}

func TestCaptureAndValidate(t *testing.T) {
	_, r := captureRun(t)
	if err := r.Validate(); err != nil {
		t.Fatalf("captured run fails validation: %v", err)
	}
	if len(r.Decisions) != len(r.Txns) {
		t.Errorf("decisions %d != txns %d", len(r.Decisions), len(r.Txns))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, r := captureRun(t)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Fatalf("round-tripped run fails validation: %v", err)
	}
	if r2.Makespan != r.Makespan || r2.Scheduler != r.Scheduler || len(r2.Edges) != len(r.Edges) {
		t.Error("round trip lost data")
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	_, r := captureRun(t)
	// Move an execution earlier than physics allows.
	r.Decisions[len(r.Decisions)-1].Exec = 0
	if err := r.Validate(); err == nil {
		t.Fatal("tampered trace should fail validation")
	}
}

func TestValidateCatchesWrongMakespan(t *testing.T) {
	_, r := captureRun(t)
	r.Makespan += 5
	if err := r.Validate(); err == nil {
		t.Fatal("wrong recorded makespan should fail validation")
	}
}

// degradeRun turns a captured complete run into a degraded one: the last
// decided transaction loses its decision and is recorded as abandoned, with
// the makespan recomputed over the surviving schedule.
func degradeRun(t *testing.T, r *Run) core.TxID {
	t.Helper()
	last := r.Decisions[len(r.Decisions)-1]
	r.Decisions = r.Decisions[:len(r.Decisions)-1]
	r.Abandoned = append(r.Abandoned, last.Tx)
	in, err := r.Instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ReplayAbandoned(in, r.Decisions, r.Abandoned, core.SimOptions{SlowFactor: r.SlowObj})
	if err != nil {
		t.Fatal(err)
	}
	r.Makespan = res.Makespan
	return last.Tx
}

func TestAbandonedRoundTrip(t *testing.T) {
	_, r := captureRun(t)
	degradeRun(t, r)
	if err := r.Validate(); err != nil {
		t.Fatalf("degraded run fails validation: %v", err)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Fatalf("round-tripped degraded run fails validation: %v", err)
	}
	if len(r2.Abandoned) != len(r.Abandoned) {
		t.Errorf("abandoned set lost in round trip: %v vs %v", r2.Abandoned, r.Abandoned)
	}
}

func TestValidateRejectsAbandonedButExecuted(t *testing.T) {
	_, r := captureRun(t)
	// Mark a transaction abandoned while its decision is still recorded.
	r.Abandoned = append(r.Abandoned, r.Decisions[0].Tx)
	if err := r.Validate(); err == nil {
		t.Fatal("abandoned-but-executed transaction should fail validation")
	}
}

func TestValidateRejectsSilentlyMissingTx(t *testing.T) {
	_, r := captureRun(t)
	// Drop a decision without declaring the transaction abandoned.
	r.Decisions = r.Decisions[:len(r.Decisions)-1]
	if err := r.Validate(); err == nil {
		t.Fatal("unexecuted undeclared transaction should fail validation")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage input: want error")
	}
}

// TestInstanceRejectsUnroutableWeights pins that a trace whose edge weights
// let a simple path reach graph.Infinite fails to load with the weight
// named, instead of loading a graph whose far nodes look unreachable (or,
// seen from the hub of the star case, a connected graph with no route
// between two of its leaves).
func TestInstanceRejectsUnroutableWeights(t *testing.T) {
	for name, edges := range map[string]string{
		"one-infinite-edge": `{"u":0,"v":1,"w":4611686018427387904},{"u":1,"v":2,"w":1}`,
		"two-near-infinite": `{"u":0,"v":1,"w":4611686018427387903},{"u":1,"v":2,"w":4611686018427387903}`,
		"star-leaves-sum":   `{"u":0,"v":1,"w":2305843009213693952},{"u":0,"v":2,"w":2305843009213693952}`,
	} {
		doc := `{"topology":"three","nodes":3,"edges":[` + edges + `],
			"objects":[{"origin":1}],"txns":[{"node":2,"objects":[0]}],
			"scheduler":"greedy","decisions":[{"tx":0,"exec":1}],"makespan":1}`
		r, err := Read(bytes.NewBufferString(doc))
		if err != nil {
			t.Fatalf("%s: Read: %v", name, err)
		}
		if _, err := r.Instance(); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("%s: Instance() = %v, want the edge weight rejected", name, err)
		}
	}
}
