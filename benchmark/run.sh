#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, its own configuration) goes under .bench_build in the checkout, so
# a run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

# The benchmark is its own module (benchmark/go.mod) that replaces the
# cortenmm module with the checkout around it; without that checkout the
# build fails and nothing is printed.
GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	go -C "$here" build -o "$out/cortenmm-benchmark" . >&2

exec "$out/cortenmm-benchmark" -trace-dir "$out/trace" "$@"
