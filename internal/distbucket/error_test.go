package distbucket

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/graph"
	"dtm/internal/workload"
)

var errBoom = errors.New("boom")

// failingBatch has no native session, so the leaders' cost probes run its
// Schedule through batch's one-shot adapter and fail at the first report.
type failingBatch struct{}

func (failingBatch) Name() string { return "failing" }

func (failingBatch) Schedule(*batch.Problem) (batch.Assignment, error) { return nil, errBoom }

// failingTour probes through Tour's native session, so the first error
// surfaces only when a bucket activates and the leader runs Schedule.
type failingTour struct{ batch.Tour }

func (failingTour) Schedule(*batch.Problem) (batch.Assignment, error) { return nil, errBoom }

// TestBatchErrorFailsRun checks that an error from a user-supplied batch
// scheduler ends the run with a marked partial result instead of a panic
// (which, under Parallel, would fire on a distnet worker goroutine and
// kill the process).
func TestBatchErrorFailsRun(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 4, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		bs   batch.Scheduler
		site string // where the error surfaces
	}{
		{"one-shot", failingBatch{}, "cost probe"},
		{"native-session", failingTour{}, "batch schedule"},
	} {
		for _, par := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", c.name, par), func(t *testing.T) {
				res, err := Run(in, Options{Batch: c.bs, Seed: 1, Parallel: par})
				if !errors.Is(err, errBoom) {
					t.Fatalf("Run error = %v, want one wrapping %v", err, errBoom)
				}
				if !strings.Contains(err.Error(), c.site) {
					t.Errorf("Run error = %v, want it raised at the %s", err, c.site)
				}
				if res == nil || !res.Failed {
					t.Fatalf("result = %+v, want a partial result marked Failed", res)
				}
				if !errors.Is(res.Err, errBoom) {
					t.Errorf("Result.Err = %v, want one wrapping %v", res.Err, errBoom)
				}
			})
		}
	}
}
