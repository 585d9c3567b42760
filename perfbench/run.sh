#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload landscape --seed 42 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# The module has no dependencies: never download a module or toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -workdir "$out" "$@"
