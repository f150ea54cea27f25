package sched

// RunRef is the finite-instance driver as it stood before Run moved onto
// the shared drive core (stream.go), frozen verbatim with its own arrival
// and wake loop. It exists only as the differential oracle for
// TestRunMatchesRef: Run must reproduce its output byte-for-byte —
// decisions, results, metrics and events. failedResultRef is the partial
// result builder it used. Remove both (and the differential test) once a
// release has shipped on the unified driver.

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/obs"
	"dtm/internal/par"
)

func RunRef(in *core.Instance, s Scheduler, opts Options) (*RunResult, error) {
	simOpts := opts.Sim
	if simOpts.Obs == nil {
		simOpts.Obs = opts.Obs
	}
	sim, err := core.NewSim(in, simOpts)
	if err != nil {
		return nil, err
	}
	dm := newDriverMetrics(opts.Obs)
	env := &Env{Sim: sim, G: in.G, Obs: opts.Obs, Scratch: depgraph.GetScratch(),
		Par: par.FromOption(simOpts.Parallel)}
	defer env.Scratch.Release()
	if err := s.Start(env); err != nil {
		return nil, fmt.Errorf("sched: %s start: %w", s.Name(), err)
	}
	arrivals := in.ArrivalTimes()
	var snaps []Snapshot
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1
	}

	ai := 0
	for {
		// Next external event: an arrival or a scheduler wake-up.
		var next core.Time
		have := false
		if ai < len(arrivals) {
			next, have = arrivals[ai], true
		}
		if w, ok := s.NextWake(); ok && (!have || w < next) {
			next, have = w, true
		}
		if !have {
			break
		}
		if err := sim.AdvanceTo(next); err != nil {
			return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
		}
		isArrival := ai < len(arrivals) && arrivals[ai] == next
		if isArrival {
			if snapEvery > 0 && ai%snapEvery == 0 {
				snaps = append(snaps, observedSnapshot(sim, next, opts.Obs, dm))
			}
			txns := in.TxnsArriving(next)
			dm.arrivals.Add(int64(len(txns)))
			if err := s.OnArrive(txns); err != nil {
				err = fmt.Errorf("sched: %s OnArrive(t=%d): %w", s.Name(), next, err)
				return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
			}
			ai++
		}
		// Serve any wake-ups due now (possibly triggered by the arrival).
		for guard := 0; ; guard++ {
			if guard > 1<<20 {
				err := fmt.Errorf("sched: %s keeps requesting wake at t=%d without progress", s.Name(), next)
				return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
			}
			w, ok := s.NextWake()
			if !ok || w > next {
				break
			}
			if w < next {
				err := fmt.Errorf("sched: %s requested wake at t=%d in the past (now t=%d)", s.Name(), w, next)
				return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
			}
			dm.wakeups.Inc()
			if err := s.OnWake(); err != nil {
				err = fmt.Errorf("sched: %s OnWake(t=%d): %w", s.Name(), next, err)
				return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
			}
		}
	}
	// All arrivals delivered and no wakes pending: every transaction must
	// have a decision by now.
	for _, tx := range in.Txns {
		if _, ok := sim.Scheduled(tx.ID); !ok {
			err := fmt.Errorf("sched: %s never scheduled transaction %d", s.Name(), tx.ID)
			return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
		}
	}
	if err := sim.RunToCompletion(); err != nil {
		return failedResultRef(sim, s, snaps, opts.Obs, dm, err), err
	}
	dm.setFinalLive(sim)
	return BuildResult(sim, s.Name(), snaps, opts.Obs), nil
}

func failedResultRef(sim *core.Sim, s Scheduler, snaps []Snapshot, m *obs.Metrics, dm driverMetrics, err error) *RunResult {
	dm.setFinalLive(sim)
	rr := BuildResult(sim, s.Name(), snaps, m)
	rr.Failed = true
	rr.Err = err
	return rr
}
