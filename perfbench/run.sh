#!/usr/bin/env bash
# Builds the benchmark from the module at the current directory and runs it
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
#
# Run it from the module root. Everything the build and the run write stays
# under .bench_build in that directory: the Go build cache, temporary files,
# the binary, the durable workload's data directory and the span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/main.go" ]]; then
	echo "perfbench: run from the root of the module (no go.mod or perfbench/main.go here)" >&2
	exit 1
fi
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/tmp"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/bin/perfbench" ./perfbench >&2
exec "$build/bin/perfbench" "$@"
