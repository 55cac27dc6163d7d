#!/usr/bin/env bash
# Builds the litperf benchmark from this checkout's sources and runs it;
# every argument passes through, e.g.
#
#   bash litperf/run.sh --workload fig7-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live in .bench_build at the root of
# the checkout, so a run reads and writes nothing outside it. The build
# fails (and so does the run) when the repository's sources are absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/litperf"
go build -o "$build/litperf" . >&2
exec "$build/litperf" "$@"
