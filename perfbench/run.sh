#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload scan-verify --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare OLD NEW     (files or directories of run logs)
#
# Run from the checkout root. Everything the build and the run write
# (Go build cache, binary, data dirs, span dumps) stays under the build
# directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home" "$build/tmp"
# Keep the go command's caches, temporary files and settings inside the
# checkout, and never let it reach for a network toolchain or module
# proxy.
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
