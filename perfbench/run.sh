#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it sits in and runs it
# with the given arguments, from the checkout's root. Build outputs, the go
# command's temporary and config files, and run scratch all go under
# .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
