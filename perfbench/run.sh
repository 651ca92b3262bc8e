#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload dataplane --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ under the
# checkout. Without the repository around this directory the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
