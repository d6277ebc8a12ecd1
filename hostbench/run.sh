#!/usr/bin/env bash
# Builds hostbench from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash hostbench/run.sh --workload boot --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build artifact, cache and Go
# config file stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/hostbench" && go build -buildvcs=false -trimpath -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
