package core

import (
	"testing"

	"dtm/internal/graph"
)

// replayAllocs is the allocation count of Replay on replayAllocInstance,
// pinned so that a per-step buffer or closure added to the exec and
// dispatch phases shows up as a failure rather than a slow drift.
const replayAllocs = 45

// replayAllocInstance is a fixed small instance: four objects spread over
// grid(4,4) and sixteen two-object transactions, serialized far enough
// apart that every object finishes each trip.
func replayAllocInstance(t testing.TB) (*Instance, []Decision) {
	g, err := graph.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{G: g}
	for i := 0; i < 4; i++ {
		in.Objects = append(in.Objects, &Object{ID: ObjID(i), Origin: graph.NodeID(i * 5)})
	}
	var decisions []Decision
	for i := 0; i < 16; i++ {
		a := ObjID(i % 4)
		b := ObjID((i + 1 + i/4) % 4)
		if a == b {
			b = (b + 1) % 4
		}
		tx := &Transaction{ID: TxID(i), Node: graph.NodeID((i * 7) % 16), Arrival: Time(i), Objects: NormalizeObjects([]ObjID{a, b})}
		in.Txns = append(in.Txns, tx)
		decisions = append(decisions, Decision{Tx: tx.ID, Exec: Time(10 * (i + 1)), At: tx.Arrival})
	}
	return in, decisions
}

func TestReplayAllocs(t *testing.T) {
	in, decisions := replayAllocInstance(t)
	if _, err := Replay(in, decisions, SimOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Replay(in, decisions, SimOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Replay", allocs)
	if allocs != replayAllocs {
		t.Fatalf("Replay allocated %.0f times, want %d", allocs, replayAllocs)
	}
}
