#!/usr/bin/env bash
# Builds the end-to-end job benchmark from the checkout's own sources and
# runs it. Run it from the repository root; every argument is passed on:
#
#   bash jobbench/run.sh --workload svc-mixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the toolchain's config writes all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so the benchmark writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
build="$build/jobbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C jobbench build -o "$build/jobbench" . >&2
exec "$build/jobbench" "$@"
