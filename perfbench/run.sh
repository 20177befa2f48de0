#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (or $CARGO_TARGET_DIR
# when set) and runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sweep-12x12 --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the toolchain's configuration and temporary files stay
# inside the build directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
