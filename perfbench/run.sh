#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ims-cydra5 --seed 1 --seconds 30 --trace 0
#
# Everything the Go command writes (the binary, its build cache, its
# config and telemetry directory) stays under .bench_build/; nothing is
# downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
