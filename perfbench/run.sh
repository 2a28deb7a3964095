#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository root:
#
#   bash perfbench/run.sh --workload defects-lanes --seed 0 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build in the
# current directory: the Go build cache, temporary files, the binary and the
# span files of traced runs.  The benchmark is its own module (perfbench/go.mod)
# that replaces the repository module with the parent directory, so a copy of
# perfbench/ without the repository around it fails to build and exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOENV=off
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
