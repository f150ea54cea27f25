#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload greedy-grid --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Every build output (binary, Go build
# cache, module cache, toolchain settings) stays under .bench_build/ in that
# checkout, and nothing is fetched from the network: the benchmark module
# resolves the repository's own module through a local replace directive.
# The build fails, and the script exits non-zero without a result, when the
# repository's sources are not next to this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOSUMDB=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
