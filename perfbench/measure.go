package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// minCycles is the fewest traced cycles, however short the window.
const minCycles = 3

// tally counts the transactions attempted and failed across a benchmark
// and keeps a line per failed check.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) fail(txns int, format string, args ...any) {
	t.failed += int64(txns)
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) ok() bool { return t.failed == 0 && len(t.problems) == 0 }

// reference is the untimed first run of one replica at P=1: the decision
// log every later run of that replica must reproduce, and its simulated
// metrics.
type reference struct {
	out  *outcome
	hash string // decision-log hash at P=1
	sim  map[string]float64
}

// bench runs one workload end to end (or traced) for cfg.seconds.
func bench(cfg config) (*outputs, error) {
	s, err := specByName(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	checks := map[string]any{}
	refs := make([]*reference, s.replicas)
	hashes := make([]string, s.replicas)
	for r := range refs {
		if refs[r], err = s.reference(cfg.seed, r, t, checks); err != nil {
			return nil, err
		}
		if refs[r] == nil {
			return newOutputs(t, nil, nil, checks), nil
		}
		hashes[r] = refs[r].hash
	}
	checks["log_hash_p1"] = hashes
	if cfg.trace {
		return s.traced(cfg, refs, t, checks)
	}
	return s.untraced(cfg, refs, t, checks)
}

// replayOpts are the engine options a workload's decision log replays
// under: the distributed protocol moves objects at half speed.
func (s *spec) replayOpts(parallel int) core.SimOptions {
	o := core.SimOptions{Parallel: parallel}
	if s.kind == distRun {
		o.SlowFactor = 2
	}
	return o
}

// reference runs one replica at P=1, untimed, and checks it: every arrival
// commits or is explicitly abandoned, and replaying the decision log
// reproduces the run. The stream workload's first replica also runs at P=2
// here, since its timed runs retire history and keep no log. A nil
// reference means the run failed, which t records.
func (s *spec) reference(seed int64, replica int, t *tally, checks map[string]any) (*reference, error) {
	inp, err := s.setup(seed, replica)
	if err != nil {
		return nil, err
	}
	n := inp.arrivals()
	t.attempted += int64(n)
	out, err := s.run(inp, runOpts{parallel: 1, collect: true})
	if err != nil {
		t.fail(n, "replica %d reference run: %v", replica, err)
		return nil, nil
	}
	// The reference keeps no graph, so its shortest-path trees do not count
	// in a later run's heap.
	ref := &reference{out: out, hash: logHash(out)}
	in := inp.in
	if s.kind == streamRun {
		if in, err = inp.materialize(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	checkOutcome(t, out, n, fmt.Sprintf("replica %d reference run", replica))
	res, err := core.ReplayAbandoned(in, out.decisions, out.abandoned, s.replayOpts(1))
	if err != nil {
		t.fail(n, "replica %d replay of the reference log: %v", replica, err)
		return nil, nil
	}
	if mean := float64(res.SumLat) / float64(max(out.committed, 1)); res.Makespan != out.makespan ||
		res.TotalComm != out.totalComm || mean != out.meanLat {
		t.fail(n, "replica %d replay gives makespan %d comm %d mean latency %g, run gave %d %d %g", replica,
			res.Makespan, res.TotalComm, mean, out.makespan, out.totalComm, out.meanLat)
	}
	maxRatio := out.maxRatio
	if s.kind == streamRun {
		if maxRatio, err = streamMaxRatio(in, out.decisions); err != nil {
			t.fail(n, "replica %d stream ratio replay: %v", replica, err)
		}
		if replica == 0 {
			t.attempted += int64(n)
			out2, err := s.run(inp, runOpts{parallel: 2, collect: true})
			if err != nil {
				t.fail(n, "replica 0 reference run at P=2: %v", err)
			} else {
				checks["log_hash_p2"] = []string{logHash(out2)}
				ref.sameRun(t, out2, n, "replica 0 reference run at P=2")
			}
		}
	}
	ref.sim = simulated(in, res, out.abandoned, maxRatio)
	return ref, nil
}

// checkOutcome checks that every arrival committed or was explicitly
// abandoned; abandoned transactions count as failed.
func checkOutcome(t *tally, out *outcome, n int, what string) {
	if out.arrivals != n || out.committed+len(out.abandoned) != n {
		t.fail(n-out.committed, "%s: %d arrivals, %d committed, %d abandoned, want %d", what,
			out.arrivals, out.committed, len(out.abandoned), n)
		return
	}
	if len(out.abandoned) > 0 {
		t.fail(len(out.abandoned), "%s: %d transactions abandoned", what, len(out.abandoned))
	}
}

// sameRun checks a later run against the reference: the same decision log
// (by hash) where the run keeps one, and the same aggregates otherwise.
func (ref *reference) sameRun(t *tally, out *outcome, n int, what string) {
	checkOutcome(t, out, n, what)
	if out.decisions != nil {
		if h := logHash(out); h != ref.hash {
			t.fail(n, "%s: decision log %s differs from the reference %s", what, h, ref.hash)
		}
		return
	}
	r := ref.out
	if out.makespan != r.makespan || out.committed != r.committed || out.meanLat != r.meanLat || out.totalComm != r.totalComm {
		t.fail(n, "%s: makespan %d committed %d mean %g comm %d, reference %d %d %g %d", what,
			out.makespan, out.committed, out.meanLat, out.totalComm, r.makespan, r.committed, r.meanLat, r.totalComm)
	}
}

// logHash hashes a run's decision log and abandoned set.
func logHash(out *outcome) string {
	h := sha256.New()
	var buf [24]byte
	for _, d := range out.decisions {
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.Tx))
		binary.LittleEndian.PutUint64(buf[8:], uint64(d.Exec))
		binary.LittleEndian.PutUint64(buf[16:], uint64(d.At))
		h.Write(buf[:])
	}
	for _, id := range out.abandoned {
		binary.LittleEndian.PutUint64(buf[0:], uint64(id))
		h.Write(buf[:8])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// untraced measures the end-to-end metrics. It goes round the replicas,
// running each at P=1 and then P=2 on a fresh set-up (cold shortest-path
// trees), until every replica has run and the window has passed. The
// calibration kernel runs before the first set-up and after every run, and
// each set-up and run time is scaled by the mean of the two kernel times
// around it (see calibrator). A host metric is the mean over the replicas
// of its median over that replica's runs, so every replica weighs the same
// however many runs it got.
func (s *spec) untraced(cfg config, refs []*reference, t *tally, checks map[string]any) (*outputs, error) {
	var setupS, kernelNs []float64
	samples := map[string][][]float64{} // metric -> replica -> runs
	add := func(name string, replica int, v float64) {
		if samples[name] == nil {
			samples[name] = make([][]float64, len(refs))
		}
		samples[name][replica] = append(samples[name][replica], v)
	}
	cal := newCalibrator()
	kernel := func() (float64, error) {
		runtime.GC()
		d, err := cal.measure()
		kernelNs = append(kernelNs, float64(d.Nanoseconds()))
		return float64(d.Nanoseconds()), err
	}
	// The first measurement only warms the kernel's caches up.
	if _, err := kernel(); err != nil {
		return nil, err
	}
	kBefore, err := kernel()
	if err != nil {
		return nil, err
	}
	hashesP2 := make([]string, len(refs))
	start := time.Now()
	for i := 0; i < len(refs) || time.Since(start).Seconds() < cfg.seconds; i++ {
		replica := i % len(refs)
		ref := refs[replica]
		for p := 1; p <= 2; p++ {
			runtime.GC()
			t0 := time.Now()
			inp, err := s.setup(cfg.seed, replica)
			if err != nil {
				return nil, err
			}
			setupNs := float64(time.Since(t0).Nanoseconds())
			n := inp.arrivals()
			t.attempted += int64(n)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t1 := time.Now()
			out, err := s.run(inp, runOpts{parallel: p})
			d := time.Since(t1)
			if p == 1 {
				runtime.ReadMemStats(&after)
				runtime.GC()
				var live runtime.MemStats
				runtime.ReadMemStats(&live)
				runtime.KeepAlive(inp)
				runtime.KeepAlive(out)
				if err == nil {
					add("allocs_per_arrival", replica, float64(after.Mallocs-before.Mallocs)/float64(n))
					add("heap_mb", replica, float64(live.HeapAlloc)/1e6)
				}
			}
			kAfter, kerr := kernel()
			if kerr != nil {
				return nil, kerr
			}
			scale := refKernelNs / ((kBefore + kAfter) / 2)
			kBefore = kAfter
			what := fmt.Sprintf("run %d (replica %d) at P=%d", i, replica, p)
			if err != nil {
				t.fail(n, "%s: %v", what, err)
				continue
			}
			ref.sameRun(t, out, n, what)
			setupS = append(setupS, setupNs*scale/1e9)
			perArrival := float64(d.Nanoseconds()) / float64(n) * scale
			if p == 2 {
				if out.decisions != nil {
					hashesP2[replica] = logHash(out)
					checks["log_hash_p2"] = hashesP2
				}
				add("run_ns_per_arrival_p2", replica, perArrival)
				continue
			}
			add("run_ns_per_arrival", replica, perArrival)
		}
	}
	checks["run_ns_p1"], checks["run_ns_p2"] = samples["run_ns_per_arrival"], samples["run_ns_per_arrival_p2"]
	checks["kernel_ns"] = kernelNs
	values := map[string]float64{"setup_s": median(setupS)}
	for name, perReplica := range samples {
		for _, xs := range perReplica {
			if len(xs) > 0 {
				values[name] += median(xs) / float64(len(refs))
			}
		}
	}
	for _, ref := range refs {
		for k, v := range ref.sim {
			values[k] += v / float64(len(refs))
		}
	}
	return newOutputs(t, endToEnd, values, checks), nil
}

// traced measures the per-layer split. Each cycle builds every shortest-path
// tree on a fresh graph (the graph layer), then on that warm graph runs the
// workload untraced and traced at P=1 and P=2, replays the reference log at
// both widths and, for Algorithm 3, rebuilds the sparse cover. The per-layer
// times are therefore self times; the remainder is the traced wall minus
// every timed layer.
func (s *spec) traced(cfg config, refs []*reference, t *tally, checks map[string]any) (*outputs, error) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	start := time.Now()
	for cycle := 0; cycle < minCycles || time.Since(start).Seconds() < cfg.seconds; cycle++ {
		replica := cycle % len(refs)
		ref := refs[replica]
		inp, err := s.setup(cfg.seed, replica)
		if err != nil {
			return nil, err
		}
		n := inp.arrivals()
		nodes := inp.g.N()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap0 := ms.HeapAlloc
		t0 := time.Now()
		for u := 0; u < nodes; u++ {
			inp.g.Dist(graph.NodeID(u), 0)
		}
		treeNs := float64(time.Since(t0).Nanoseconds())
		runtime.GC()
		runtime.ReadMemStats(&ms)
		add("graph.tree_build_ns_per_tree", treeNs/float64(nodes))
		add("graph.tree_mb", (float64(ms.HeapAlloc)-float64(heap0))/1e6)

		timedRun := func(p int, layers *layerTimes, m *obs.Metrics) (*outcome, float64) {
			t.attempted += int64(n)
			runtime.GC()
			t1 := time.Now()
			out, err := s.run(inp, runOpts{parallel: p, layers: layers, obs: m})
			d := float64(time.Since(t1).Nanoseconds())
			what := fmt.Sprintf("cycle %d at P=%d (traced %v)", cycle, p, layers != nil)
			if err != nil {
				t.fail(n, "%s: %v", what, err)
				return nil, d
			}
			ref.sameRun(t, out, n, what)
			if out.result != nil {
				sim := simulated(inp.in, out.result, out.abandoned, out.maxRatio)
				for k, v := range sim {
					if ref.sim[k] != v {
						t.fail(n, "%s: %s = %g, reference %g", what, k, v, ref.sim[k])
					}
				}
			}
			return out, d
		}
		_, wallU1 := timedRun(1, nil, nil)
		lt1, m1 := &layerTimes{}, obs.New()
		out, wallT1 := timedRun(1, lt1, m1)
		_, wallU2 := timedRun(2, nil, nil)
		lt2 := &layerTimes{}
		timedRun(2, lt2, obs.New())
		if out == nil {
			continue
		}

		in := inp.in
		if s.kind == streamRun {
			if in, err = inp.materialize(); err != nil {
				return nil, err
			}
		}
		replay := func(p int) float64 {
			runtime.GC()
			t1 := time.Now()
			if _, err := core.ReplayAbandoned(in, ref.out.decisions, ref.out.abandoned, s.replayOpts(p)); err != nil {
				t.fail(n, "cycle %d replay at P=%d: %v", cycle, p, err)
			}
			return float64(time.Since(t1).Nanoseconds())
		}
		replay1, replay2 := replay(1), replay(2)
		var coverNs float64
		if s.kind == distRun {
			t1 := time.Now()
			if _, err := cover.Build(inp.g, inp.dist.Seed); err != nil {
				return nil, err
			}
			coverNs = float64(time.Since(t1).Nanoseconds())
		}

		snap := out.metrics
		counter := func(name string) float64 { return float64(snap.Counters[name]) }
		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		per := func(v float64) float64 { return v / float64(n) }
		engineNs := float64((lt1.onArrive + lt1.onWake + lt1.nextWake).Nanoseconds())
		sourceNs := float64(lt1.next.Nanoseconds())
		snapNs := float64(snap.Histograms[obs.NameSchedSnapshotNs].Sum)
		remainder := wallT1 - engineNs - sourceNs - snapNs - replay1 - coverNs
		total := treeNs + wallT1

		add("engine.on_arrive_ns_per_arrival", per(float64(lt1.onArrive.Nanoseconds())))
		add("engine.on_wake_ns_per_arrival", per(float64(lt1.onWake.Nanoseconds())))
		add("engine.next_wake_ns_per_arrival", per(float64(lt1.nextWake.Nanoseconds())))
		add("engine.on_wake_calls", float64(lt1.onWakeCalls))
		add("engine.next_wake_calls", float64(lt1.nextWakeCalls))
		add("depgraph.live_vertices_peak", float64(snap.Gauges[obs.NameDepgraphLiveVertices].Max))
		add("depgraph.edges_reused_per_arrival", per(counter(obs.NameDepgraphEdgesReused)))
		add("greedy.within_bound_frac", ratio(counter(obs.NameGreedyWithinBound), counter(obs.NameGreedyColorsAssigned)))
		add("window.retries_per_placed", ratio(counter(obs.NameWindowRetries), counter(obs.NameWindowPlaced)))
		add("batch.session_pushes_per_arrival", per(counter(obs.NameBatchSessionPushes)))
		add("batch.session_costs_per_arrival", per(counter(obs.NameBatchSessionCosts)))
		add("batch.session_rebuilds", counter(obs.NameBatchSessionRebuilds))
		hits := counter(obs.NameBatchTourCacheHits)
		add("batch.tour_cache_hit_ratio", ratio(hits, hits+counter(obs.NameBatchTourCacheMisses)))
		add("bucket.activations", counter(obs.NameBucketActivations))
		add("bucket.overflows", counter(obs.NameBucketOverflows))
		add("core.replay_ns_per_arrival", per(replay1))
		add("core.replay_ns_per_arrival_p2", per(replay2))
		add("core.object_moves_per_txn", ratio(counter(obs.NameCoreObjectMoves), counter(obs.NameCoreCommits)))
		add("core.link_queued", counter(obs.NameCoreLinkQueued))
		add("workload.next_ns_per_arrival", per(sourceNs))
		add("sched.snapshot_ns_per_arrival", per(snapNs))
		add("sched.remainder_ns_per_arrival", per(remainder))
		add("stream.window_peak", float64(snap.Gauges[obs.NameStreamWindowTxns].Max))
		add("stream.live_state_peak", float64(snap.Gauges[obs.NameStreamLiveState].Max))
		add("distnet.dropped", counter(obs.NameDistnetDropped))
		add("distnet.messages_per_txn", per(float64(out.messages)))
		add("distbucket.retries_per_txn", per(counter(obs.NameDistbucketRetries)))
		add("distbucket.timeouts", counter(obs.NameDistbucketTimeouts))
		add("cover.build_ns", coverNs)
		add("par.speedup_p2", ratio(wallU1, wallU2))
		add("engine.on_arrive_speedup_p2", ratio(float64(lt1.onArrive), float64(lt2.onArrive)))
		add("core.replay_speedup_p2", ratio(replay1, replay2))
		add("trace.overhead_frac", ratio(wallT1, wallU1)-1)
		add("share.graph", treeNs/total)
		add("share.source", sourceNs/total)
		add("share.engine", engineNs/total)
		add("share.snapshot", snapNs/total)
		add("share.replay", replay1/total)
		add("share.cover", coverNs/total)
		add("share.remainder", remainder/total)
	}
	values := make(map[string]float64, len(samples))
	for k, xs := range samples {
		values[k] = median(xs)
	}
	checks["cycles"] = len(samples["graph.tree_mb"])
	return newOutputs(t, perLayer, values, checks), nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
