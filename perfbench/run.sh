#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 12 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build in
# the current directory. The last line of standard output is the result JSON.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

# The commit, when the current directory is itself a git checkout; git does
# not look above it.
PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$(pwd)")" git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT

go build -C perfbench -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
