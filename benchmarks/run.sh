#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the arguments given. Everything the Go toolchain writes —
# build cache, temporary files, the binary, its own configuration — is
# kept under .bench_build/ in the checkout, so the benchmark reads and
# writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmarks/run.sh: $root holds no go.mod: the benchmark builds the simulator from source and cannot run without it" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off

go build -o "$build/bin/benchmarks" ./benchmarks
exec "$build/bin/benchmarks" "$@"
