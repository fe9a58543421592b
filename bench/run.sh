#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/vccbench" .)
exec "$out/vccbench" "$@"
