#!/usr/bin/env bash
# Pipeline entry point: build the benchmark inside the checkout, then run it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout. The first call compiles; later calls find
# the cache warm and relink in well under a second.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $(pwd) is not the dgsf repository (no go.mod and internal/): nothing to measure" >&2
	exit 3
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/dgsf-bench" ./bench
exec "$build/dgsf-bench" "$@"
