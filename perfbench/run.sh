#!/usr/bin/env bash
# Builds the benchmark and the two commands it runs (anycastsim,
# repro) from this checkout's source, then runs the benchmark. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload passive-stream --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/anycastsim || ! -d cmd/repro || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/anycastsim, cmd/repro, perfbench)" >&2
	exit 2
fi

# Everything the toolchain writes stays under .bench_build, and nothing is
# fetched: the module has no dependencies outside the standard library.
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off
# The commands run with the runtime's defaults (GOMAXPROCS = CPU count).
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

mkdir -p "$build/bin"
go build -o "$build/bin/" ./cmd/anycastsim ./cmd/repro
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
