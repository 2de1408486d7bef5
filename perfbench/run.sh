#!/bin/sh
# Builds the benchmark and the binaries it drives from the source tree it
# sits in, then runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload san-transient --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache
# and the go command's configuration and telemetry directory.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# Offline and self-contained: no module or toolchain downloads.
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/" ./cmd/ctsan ./cmd/ctsand
exec "$build/perfbench" -bin "$build" "$@"
