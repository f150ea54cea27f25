package engine

import (
	"sort"
	"strings"
	"testing"
)

// TestRegistryShape pins the registry's structural invariants: unique
// spellings, a constructor iff the engine is centrally driven, and a doc
// line on every entry.
func TestRegistryShape(t *testing.T) {
	if len(registry) < 8 {
		t.Fatalf("registry lists %d engines, want at least the eight variants", len(registry))
	}
	seen := map[string]bool{}
	for _, d := range All() {
		if d.ID == "" || d.Doc == "" {
			t.Errorf("engine %+v missing ID or Doc", d)
		}
		for _, name := range append([]string{d.ID}, d.Aliases...) {
			key := strings.ToLower(name)
			if seen[key] {
				t.Errorf("spelling %q registered twice", name)
			}
			seen[key] = true
		}
		if d.Caps.Distributed == (d.New != nil) {
			t.Errorf("engine %q: want New constructor iff not distributed", d.ID)
		}
		if d.Caps.Distributed && d.Caps.Stream {
			t.Errorf("engine %q: the distributed protocol takes no central-driver caps", d.ID)
		}
	}
}

func TestByIDResolvesAliasesCaseInsensitively(t *testing.T) {
	for _, q := range []string{"greedy", "GREEDY", "bucket", "Bucket-Tour", "distbucket", "Window"} {
		if _, ok := ByID(q); !ok {
			t.Errorf("ByID(%q) did not resolve", q)
		}
	}
	if _, ok := ByID("no-such-engine"); ok {
		t.Error("ByID resolved an unregistered name")
	}
	if d, _ := ByID("bucket"); d.ID != "bucket-tour" {
		t.Errorf("alias bucket resolved to %q, want bucket-tour", d.ID)
	}
}

func TestDefault(t *testing.T) {
	for _, d := range All() {
		s, err := Default(d.ID)
		if d.Caps.Distributed {
			if err == nil {
				t.Errorf("Default(%q) should refuse the distributed protocol", d.ID)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Default(%q): %v", d.ID, err)
		}
		if s == nil || s.Name() == "" {
			t.Errorf("Default(%q) returned an unnamed scheduler", d.ID)
		}
	}
	if _, err := Default("bogus"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("Default(bogus) error = %v, want unknown-engine hint", err)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	ns := Names()
	if !sort.StringsAreSorted(ns) {
		t.Errorf("Names() not sorted: %v", ns)
	}
	if len(ns) != len(IDs())+2 { // two aliases: bucket, distbucket
		t.Errorf("Names() has %d entries for %d IDs; alias count drifted", len(ns), len(IDs()))
	}
}

func TestCapsString(t *testing.T) {
	for _, c := range []struct {
		caps Caps
		want string
	}{
		{Caps{}, "-"},
		{Caps{Stream: true}, "stream"},
		{Caps{Distributed: true}, "distributed"},
		{Caps{Distributed: true, Stream: true}, "distributed,stream"},
	} {
		if got := c.caps.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.caps, got, c.want)
		}
	}
}
