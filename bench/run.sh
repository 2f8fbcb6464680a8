#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-rpc --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# configuration) goes under .bench_build/ in the current directory, and
# no module is fetched: the benchmark needs only the repository.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$build/cnibench" .
exec "$build/cnibench" "$@"
