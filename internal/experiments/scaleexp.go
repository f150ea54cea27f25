package experiments

// T12 — the incremental-engine scaling sweep: greedy on cliques up to
// n=1024, recording the conflict index's workload (peak live vertices,
// posting edges served) against the transaction count. The identity with
// the from-scratch rebuild reference at these sizes is pinned by the root
// package's TestCliqueIdentityAtScale, and the wall-clock gap by
// BenchmarkGreedyScheduleCPU; wall clock stays out of the experiment tables,
// which must be byte-identical across runner widths.

import (
	"fmt"

	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

func table12Scale(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 12 — incremental conflict-index engine at scale (greedy, clique)",
		"n", "txns", "makespan", "peak live", "edges served")
	ns := []int{16, 64, 256, 1024}
	if cfg.Quick {
		ns = []int{16, 64}
	}
	k := 3
	var points []runner.Point
	for _, n := range ns {
		g, err := graph.Clique(n)
		if err != nil {
			return nil, err
		}
		n := n
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: fmt.Sprintf("n=%d", n), Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				in, err := genUniform(g, k, n, 3, 2, seed)
				if err != nil {
					return runner.Outcome{}, err
				}
				reg := m
				if reg == nil {
					reg = obs.New()
				}
				// Snapshots are disabled: the lower-bound estimates they
				// take per arrival dominate the cost at n=1024.
				rr, err := sched.Run(in, engine.NewGreedy(greedy.Options{}),
					sched.Options{Obs: reg, SnapshotEvery: -1})
				if err != nil {
					return runner.Outcome{}, err
				}
				out := runner.FromRunResult(rr)
				snap := reg.Snapshot()
				out.Extra = map[string]float64{
					"txns":         float64(len(in.Txns)),
					"peak_live":    float64(snap.Gauges["depgraph.live_vertices"].Max),
					"edges_served": float64(snap.Counters["depgraph.edges_reused"]),
				}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				return []string{fmt.Sprint(n), c.Int(c.X("txns")), c.Int(c.Makespan),
					c.Int(c.X("peak_live")), c.Int(c.X("edges_served"))}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
