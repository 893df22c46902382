#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload dense-host --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory (Go build cache included). The benchmark module
# replaces the vmalloc module with ../, so without the repository beside
# it the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
