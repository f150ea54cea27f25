package main

import (
	"time"

	"dtm/internal/core"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// layerTimes accumulates the wall-clock time spent inside the engine and
// the source during one traced run. The wrappers below time each call from
// the benchmark's side of the boundary, so the program under test is the
// one the untraced run measures.
type layerTimes struct {
	onArrive, onWake, nextWake, next time.Duration
	onWakeCalls, nextWakeCalls       int64
}

// timedScheduler forwards to a registry engine and times OnArrive, OnWake
// and NextWake.
type timedScheduler struct {
	inner sched.Scheduler
	t     *layerTimes
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Start(env *sched.Env) error { return s.inner.Start(env) }

func (s *timedScheduler) OnArrive(txns []*core.Transaction) error {
	start := time.Now()
	err := s.inner.OnArrive(txns)
	s.t.onArrive += time.Since(start)
	return err
}

func (s *timedScheduler) NextWake() (core.Time, bool) {
	start := time.Now()
	w, ok := s.inner.NextWake()
	s.t.nextWake += time.Since(start)
	s.t.nextWakeCalls++
	return w, ok
}

func (s *timedScheduler) OnWake() error {
	start := time.Now()
	err := s.inner.OnWake()
	s.t.onWake += time.Since(start)
	s.t.onWakeCalls++
	return err
}

// LiveStats forwards the engine's live-state probe, which RunStream reads
// for the stream.live_state gauge; an engine without one reports zero, as
// the driver assumes when the probe is missing.
func (s *timedScheduler) LiveStats() (int, int) {
	if ls, ok := s.inner.(interface{ LiveStats() (int, int) }); ok {
		return ls.LiveStats()
	}
	return 0, 0
}

// timedSource forwards to a workload source and times Next.
type timedSource struct {
	inner workload.Source
	t     *layerTimes
}

func (s *timedSource) Next() (workload.Arrival, bool) {
	start := time.Now()
	a, ok := s.inner.Next()
	s.t.next += time.Since(start)
	return a, ok
}
