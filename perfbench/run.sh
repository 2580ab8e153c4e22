#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (build cache,
# temporary files, binary, results log, spans) stays under the build
# directory, which is $CARGO_TARGET_DIR when set and .bench_build
# otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export TMPDIR=$build/tmp GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

PERFBENCH_COMMIT=
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
export PERFBENCH_COMMIT
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
