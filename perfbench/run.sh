#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 15 --trace 0
# Run from the repository root. Everything the build writes (Go build
# cache, binary, work counts of earlier runs) stays under the build
# directory, .bench_build unless CARGO_TARGET_DIR names another.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/home"
export GOCACHE=$build/gocache GOPATH=$build/gopath HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --state "$build/perfbench-state" "$@"
