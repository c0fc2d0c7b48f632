#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-full --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the benchmark's scratch files all stay under .bench_build there.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$src" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
