package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/obs"
)

// benchmarkFile is the subset of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// metrics the program emits.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs(false) {
		want = append(want, s.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end_to_end metrics, program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end_to_end[%d] = %s %s, program has %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics, program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] = %s %s, program has %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: each must pass its output checks and emit exactly the metrics
// BENCHMARK.json names for its mode.
func TestWorkloadsTiny(t *testing.T) {
	for _, s := range specs(true) {
		for _, trace := range []bool{false, true} {
			res, err := bench(config{workload: s.name, seed: 3, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.rep.Correct || res.rep.Failed != 0 || res.rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", s.name, trace,
					res.rep.Correct, res.rep.Attempted, res.rep.Failed, res.tally.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, trace, len(res.rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", s.name, trace, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", s.name, trace, d.name, m)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", s.name, d.name)
				}
			}
		}
	}
}

// TestTracingKeepsDecisions runs every workload with and without the layer
// timers and the obs registry at both widths: the decision logs and the
// simulated metrics must be identical, so tracing never changes a decision.
func TestTracingKeepsDecisions(t *testing.T) {
	for _, s := range specs(true) {
		inp, err := s.setup(5, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := inp.in
		if s.kind == streamRun {
			if in, err = inp.materialize(); err != nil {
				t.Fatal(err)
			}
		}
		var want string
		var wantSim map[string]float64
		for _, p := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				ro := runOpts{parallel: p, collect: true}
				if traced {
					ro.layers, ro.obs = &layerTimes{}, obs.New()
				}
				out, err := s.run(inp, ro)
				if err != nil {
					t.Fatalf("%s P=%d traced=%v: %v", s.name, p, traced, err)
				}
				res, err := core.ReplayAbandoned(in, out.decisions, out.abandoned, s.replayOpts(1))
				if err != nil {
					t.Fatalf("%s P=%d traced=%v: replay: %v", s.name, p, traced, err)
				}
				h, sim := logHash(out), simulated(in, res, out.abandoned, 0)
				if want == "" {
					want, wantSim = h, sim
					continue
				}
				if h != want {
					t.Errorf("%s P=%d traced=%v: decision log %s, untraced P=1 %s", s.name, p, traced, h, want)
				}
				for k, v := range sim {
					if v != wantSim[k] {
						t.Errorf("%s P=%d traced=%v: %s = %g, untraced P=1 %g", s.name, p, traced, k, v, wantSim[k])
					}
				}
			}
		}
	}
}

// TestChecksCatchDivergence tampers with a run's log and aggregates: the
// comparison against the reference must fail.
func TestChecksCatchDivergence(t *testing.T) {
	ref := &reference{
		out:  &outcome{arrivals: 2, committed: 2, makespan: 5, decisions: []core.Decision{{Tx: 0, Exec: 3}, {Tx: 1, Exec: 5}}},
		hash: "",
	}
	ref.hash = logHash(ref.out)
	same := &tally{}
	ref.sameRun(same, ref.out, 2, "same")
	if !same.ok() {
		t.Fatalf("identical run flagged: %v", same.problems)
	}
	moved := *ref.out
	moved.decisions = []core.Decision{{Tx: 0, Exec: 3}, {Tx: 1, Exec: 6}}
	aggregate := *ref.out
	aggregate.decisions, aggregate.makespan = nil, 6
	lost := *ref.out
	lost.committed = 1
	for name, out := range map[string]*outcome{"moved": &moved, "aggregate": &aggregate, "lost": &lost} {
		tl := &tally{}
		ref.sameRun(tl, out, 2, name)
		if tl.ok() {
			t.Errorf("%s: divergence not caught", name)
		}
	}
}

// TestRunOutput checks the command's output contract: the last line is the
// JSON report, and a bad flag exits 2 without one.
func TestRunOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if binnedQuantile([]core.Time{1, 1, 2, 2}, 0.5) != 1 || binnedQuantile([]core.Time{4}, 0.99) != 3.99 {
		t.Errorf("binnedQuantile: %g %g", binnedQuantile([]core.Time{1, 1, 2, 2}, 0.5), binnedQuantile([]core.Time{4}, 0.99))
	}
	if got := queuePeak([]core.Time{0, 0, 4, 4}, []core.Time{2, 3, 5, 9}); got != 2 {
		t.Errorf("queuePeak = %d, want 2", got)
	}
}

// TestCalibratorRepeats checks that the calibration kernel does the same
// work on every pass (its checksum repeats) and allocates nothing, so the
// garbage collector stays out of the speed it measures.
func TestCalibratorRepeats(t *testing.T) {
	c := newCalibrator()
	for range 2 {
		if d, err := c.measure(); err != nil || d <= 0 {
			t.Fatalf("measure: %v, %v", d, err)
		}
	}
	if allocs := testing.AllocsPerRun(2, func() { c.pass() }); allocs != 0 {
		t.Errorf("kernel pass allocates %g times", allocs)
	}
}
