#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload estimate-hard --seed 1 --seconds 10 --trace 0
# Run it from the repository root.  Build outputs, the Go build cache and
# the traced run's spans all stay under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-mod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
