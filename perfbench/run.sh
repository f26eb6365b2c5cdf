#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments are passed to the benchmark, for example
#
#   bash perfbench/run.sh --workload city-zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d vendor ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and vendor/ not found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config/go/telemetry"
# The go command starts a detached telemetry child process unless the
# telemetry mode file says "off"; GOTELEMETRY in the environment does not
# change the mode. The child would outlive the build.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$PWD/$out/go-cache" GOTMPDIR="$PWD/$out/go-tmp" \
	GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/perfbench" ./perfbench >&2
exec "$out/perfbench" "$@"
