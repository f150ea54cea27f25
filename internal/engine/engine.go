// Package engine is the scheduler-engine registry: the single place where
// the repo's scheduling algorithms are constructed. Every front end — the
// dtm facade, cmd/dtmsim, cmd/dtmbench, the experiments, and the root
// conformance/differential/parallel test suites — resolves engines here by
// ID (engine.ByID) or enumerates them (engine.All, filtered by capability
// flags), so adding an engine means adding one Desc to the table below and
// every harness picks it up; the dtmlint enginereg analyzer rejects direct
// constructor calls anywhere else.
//
// Option-variant construction (a padded greedy, a slow bucket, a custom
// window seed) goes through the concrete constructors NewGreedy,
// NewCoordinator, NewBucket, and NewWindow — still this package, so the
// lint boundary holds without every feature knob needing a registry ID.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/window"
)

// Caps are an engine's capability flags; harnesses filter engine.All on
// them instead of hand-maintaining per-suite engine lists.
type Caps struct {
	// Distributed marks the Section V message-passing protocol: it runs
	// under its own driver (distbucket.Run) rather than sched.Run, so its
	// Desc carries no New constructor.
	Distributed bool
	// Stream marks engines safe under the bounded-memory streaming driver
	// (sched.RunStream): decisions never depend on retired history, and
	// live state stays proportional to the in-flight window.
	Stream bool
}

// String renders the set flags as a comma-separated list ("-" when none
// is set), the caps column of the engine listings.
func (c Caps) String() string {
	var flags []string
	if c.Distributed {
		flags = append(flags, "distributed")
	}
	if c.Stream {
		flags = append(flags, "stream")
	}
	if len(flags) == 0 {
		return "-"
	}
	return strings.Join(flags, ",")
}

// Desc describes one registered engine.
type Desc struct {
	// ID is the canonical engine name, as accepted by dtmsim -sched.
	ID string
	// Aliases are accepted alternate spellings of ID.
	Aliases []string
	// Doc is a one-line description for -sched list.
	Doc string
	// New constructs the engine with default options. Nil for
	// distributed engines, which have their own driver; check
	// Caps.Distributed first.
	New func(opts sched.EngineOptions) sched.Scheduler
	// Caps are the engine's capability flags.
	Caps Caps
}

// registry is the engine table, in presentation order (Algorithm 1
// variants, Algorithm 2 variants, Algorithm W, the Section V protocol).
var registry = []Desc{
	{
		ID:   "greedy",
		Doc:  "Algorithm 1: online greedy coloring of the dependency graph (Theorem 1)",
		New:  func(sched.EngineOptions) sched.Scheduler { return greedy.New(greedy.Options{}) },
		Caps: Caps{Stream: true},
	},
	{
		ID:  "greedy-uniform",
		Doc: "Algorithm 1, Theorem 2 mode: uniform overlay weights, epoch-quantized decisions",
		New: func(sched.EngineOptions) sched.Scheduler {
			return greedy.New(greedy.Options{Uniform: true})
		},
		Caps: Caps{Stream: true},
	},
	{
		ID:  "coordinator",
		Doc: "Section III-E hub coordinator: decisions funnel through node 0, floored by the round trip",
		New: func(sched.EngineOptions) sched.Scheduler {
			return greedy.NewCoordinator(0, greedy.Options{})
		},
		Caps: Caps{Stream: true},
	},
	{
		ID:      "bucket-tour",
		Aliases: []string{"bucket"},
		Doc:     "Algorithm 2 over the MST Euler-tour batch scheduler (Theorem 4)",
		New: func(sched.EngineOptions) sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Tour{}})
		},
		Caps: Caps{Stream: true},
	},
	{
		ID:  "bucket-coloring",
		Doc: "Algorithm 2 over the weighted-coloring batch scheduler",
		New: func(sched.EngineOptions) sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Coloring{}})
		},
		Caps: Caps{Stream: true},
	},
	{
		ID:  "bucket-list",
		Doc: "Algorithm 2 over the list-scheduling batch scheduler",
		New: func(sched.EngineOptions) sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.List{}})
		},
		Caps: Caps{Stream: true},
	},
	{
		ID:   "window",
		Doc:  "Algorithm W: randomized window-based greedy contention management (Sharma/Estrade/Busch)",
		New:  func(sched.EngineOptions) sched.Scheduler { return window.New(window.Options{}) },
		Caps: Caps{Stream: true},
	},
	{
		ID:      "distributed",
		Aliases: []string{"distbucket"},
		Doc:     "Algorithm 3: decentralized bucket protocol over the sparse cover (own driver, Theorem 5)",
		Caps:    Caps{Distributed: true},
	},
}

// All returns the registered engines in presentation order. The returned
// slice is a copy; mutating it cannot corrupt the registry.
func All() []Desc {
	return append([]Desc(nil), registry...)
}

// IDs returns the canonical engine IDs in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.ID
	}
	return ids
}

// ByID resolves an engine by ID or alias, case-insensitively.
func ByID(id string) (Desc, bool) {
	for _, d := range registry {
		if strings.EqualFold(d.ID, id) {
			return d, true
		}
		for _, a := range d.Aliases {
			if strings.EqualFold(a, id) {
				return d, true
			}
		}
	}
	return Desc{}, false
}

// Names returns every accepted spelling (IDs and aliases), sorted — the
// "unknown engine" error hint.
func Names() []string {
	var ns []string
	for _, d := range registry {
		ns = append(ns, d.ID)
		ns = append(ns, d.Aliases...)
	}
	sort.Strings(ns)
	return ns
}

// Default constructs the engine registered under id with default options,
// erroring on unknown IDs and on distributed engines (which have no
// sched.Scheduler constructor — run them through distbucket.Run).
func Default(id string) (sched.Scheduler, error) {
	d, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %s)", id, strings.Join(Names(), ", "))
	}
	if d.New == nil {
		return nil, fmt.Errorf("engine: %q runs under the distributed driver, not sched.Run", d.ID)
	}
	return d.New(sched.EngineOptions{}), nil
}

// Concrete full-option constructors. These are the only construction sites
// outside the engines' own packages the enginereg analyzer accepts; option
// structs stay the engines' own, so feature knobs (padding, slow factors,
// custom seeds) need no registry mirror.

// NewGreedy returns the Algorithm 1 online greedy scheduler.
func NewGreedy(opts greedy.Options) *greedy.Greedy { return greedy.New(opts) }

// NewCoordinator returns the Section III-E hub coordinator scheduler.
func NewCoordinator(hub graph.NodeID, opts greedy.Options) *greedy.Coordinator {
	return greedy.NewCoordinator(hub, opts)
}

// NewBucket returns the Algorithm 2 online bucket scheduler converting the
// offline batch algorithm in opts.Batch.
func NewBucket(opts bucket.Options) *bucket.Bucket { return bucket.New(opts) }

// NewWindow returns the Algorithm W randomized window scheduler.
func NewWindow(opts window.Options) *window.Window { return window.New(opts) }
