#!/usr/bin/env bash
# Entry point of the PIER benchmark. BENCHMARK.json names this script; the
# driver appends --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Other modes (see benchmark/README.md): --all, --compare base change,
# --print-benchmark-json, and no argument at all for the harness's own tests.
#
# The harness is a `go test -c` binary (its sources import pier/internal/...,
# which only _test.go files may do without an entry in internal/arch's table).
# Everything the build and the runs write — Go's build cache, the binary,
# spill files, trace files — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export PIER_BENCH_COMMIT="${PIER_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

bin="$build/pierbench.test"
(cd "$here" && go test -c -o "$bin" .) >&2

cd "$root"
exec "$bin" "$@"
