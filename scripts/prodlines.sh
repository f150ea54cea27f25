#!/usr/bin/env sh
# prodlines.sh — print the production-size metric ROADMAP.md tracks: lines
# of non-test Go source, leaving out perfbench/ (the benchmark's own
# module), testdata/ trees and hidden directories (build caches).
# Runs from any directory.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
n=$(find . \( -path './.*' -o -path ./perfbench -o -name testdata \) -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print | xargs cat | wc -l)
echo "$n production Go lines (non-test, outside perfbench/ and testdata/)"
