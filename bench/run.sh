#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload image-scale-jdp --seed 17 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, telemetry) stays under .bench_build in the repository root. The
# build fails, and so does this script, when the repository's own
# sources are missing.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
