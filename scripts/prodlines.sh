#!/usr/bin/env sh
# prodlines.sh — print the production-size metric ROADMAP.md tracks: lines
# of non-test Go source, leaving out perfbench/ (the benchmark's own
# module), testdata/ trees and hidden directories (build caches). A second
# line counts the _test.go lines under the same rules, so code moved from
# production files into tests shows up instead of passing as a reduction.
# Runs from any directory.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
# count prints the total line count of the Go files the find predicates
# after the prune select.
count() {
	find . \( -path './.*' -o -path ./perfbench -o -name testdata \) -prune -o \
		-name '*.go' "$@" -type f -print | xargs cat | wc -l
}
echo "$(count ! -name '*_test.go') production Go lines (non-test, outside perfbench/ and testdata/)"
echo "$(count -name '*_test.go') test Go lines (outside perfbench/ and testdata/)"
