// Fixture for the enginereg analyzer: engine constructors must be called
// through dtm/internal/engine, not directly. The fixture package path is
// dtmlintfixture/enginereg — neither the registry nor an engine package —
// so every direct constructor call here is a finding.
package enginereg

import (
	"dtm/internal/bucket"
	"dtm/internal/engine"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/window"
)

func direct() {
	greedy.New(greedy.Options{})               // want `direct engine construction greedy\.New`
	greedy.NewCoordinator(0, greedy.Options{}) // want `direct engine construction greedy\.NewCoordinator`
	bucket.New(bucket.Options{})               // want `direct engine construction bucket\.New`
	window.New(window.Options{Seed: 4})        // want `direct engine construction window\.New`
}

// viaRegistry builds engines the sanctioned way; none of these are
// findings — engine.New* are the registry's wrappers, and Desc.New is a
// field call, not a constructor in an engine package.
func viaRegistry() {
	engine.NewGreedy(greedy.Options{})
	engine.NewBucket(bucket.Options{})
	engine.NewWindow(window.Options{})
	if d, ok := engine.ByID("window"); ok {
		_ = d.New(sched.EngineOptions{})
	}
}

// optionsOnly references engine option types and values without
// constructing anything; type references are not findings.
func optionsOnly() greedy.Options {
	var bo bucket.Options
	_ = bo
	return greedy.Options{Pad: 2}
}

// otherNew calls a New from an unrelated package (same name, different
// package path); the analyzer keys on the package path, so this is not a
// finding.
func otherNew() *sched.Env {
	return newEnv()
}

func newEnv() *sched.Env { return &sched.Env{} }

// suppressed bypasses the registry with a justification.
func suppressed() sched.Scheduler {
	//lint:ignore enginereg fixture demonstrates the escape hatch
	return greedy.New(greedy.Options{Uniform: true})
}
