#!/usr/bin/env bash
# Builds the pestrie command and the benchmark from the checkout this is
# started in, then runs the benchmark. Run from the repository root:
#
#   bash pbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Everything built or written stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pestrie || ! -f pbench/go.mod ]]; then
	echo "pbench: run from the root of a pestrie checkout (go.mod, cmd/pestrie, pbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go build -o "$out/bin/pestrie" ./cmd/pestrie
(cd pbench && go build -o "$out/bin/pbench" .)
exec "$out/bin/pbench" -pestrie "$out/bin/pestrie" -work "$out/work" "$@"
