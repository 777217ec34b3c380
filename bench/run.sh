#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source and runs
# it with every Go cache and temp directory inside the checkout (bench/out), so
# a run reads and writes nothing outside it. Arguments go to the harness
# unchanged: --workload NAME --seed N --seconds S --trace 0|1 (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/bench/out
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
