#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it writes
# (build cache, binary, temp and spill files, traces) under .bench_build/ in
# the checkout it was started from. Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload analytic_scan --seed 1 --seconds 16 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
# The go command counts its runs in files under the user's config directory.
export XDG_CONFIG_HOME="$build/config"
# The engine spills to the system temp directory; keep that in the checkout.
export TMPDIR="$build/tmp"

go -C "$here" build -o "$build/calcite-bench" .
exec "$build/calcite-bench" "$@"
